//! The cluster router: N independent `fmml-serve` nodes behind one
//! wire-compatible endpoint.
//!
//! ```text
//!             ┌──────────────────────── router ────────────────────────┐
//!  clients ──▶│ frontend reader ─▶ dedup/replay ─▶ per-session backend │──▶ serve node A
//!   (Hello/   │   (per session)    (SessionCore)        link           │──▶ serve node B
//!  Interval)  │        ▲                                 │            │──▶ serve node C
//!             │        └── replies ◀── link reader ◀─────┘            │
//!             │  prober: MetricsDump liveness + queue-depth load      │
//!             │  ring: seeded consistent hash over resume tokens      │
//!             └────────────────────────────────────────────────────────┘
//! ```
//!
//! ## Placement
//!
//! Sessions are placed by consistent hashing ([`crate::ring::HashRing`])
//! keyed on the *router-minted* resume token, so placement survives
//! client reconnects (same token → same shard) and node join/leave
//! moves only ring-adjacent token ranges.
//!
//! ## Exactly-once across the router hop
//!
//! The router terminates the client-facing session protocol by running
//! the same [`SessionCore`] as a single node: the core mints the token,
//! validates the `Hello`, keeps each lineage's replay log
//! (record-before-send), parks disconnected sessions under their TTL and
//! on reconnect replays past `last_acked` — exactly the single-node
//! semantics, one hop out. Toward the backends the router
//! keeps, per session: `pending` (intervals forwarded but unanswered)
//! and `history` (the last `window_intervals - 1` *ingested* updates
//! per port — the ones answered Ack/Imputed). A backend's sliding
//! window is a pure function of the last W ingested updates, so when a
//! backend dies the router re-creates the session elsewhere by
//! replaying `history` as warm-up (replies swallowed — the client
//! already has them) and re-sending `pending` in order: the new
//! backend's replies are bitwise-identical in every semantic field, the
//! client sees each seq answered exactly once, and no interval is lost.
//! Duplicate client retransmits are answered from the lineage's replay
//! log without re-feeding any window; a reply racing a migration is
//! dropped because its seq is already logged.
//!
//! What stays here is what only a router has: ring placement, backend
//! links with their epochs, migration warm-up, the prober and the stuck
//! sweep. A router `Welcome` carries the deadline its backend announced.

use crate::ring::HashRing;
use fmml_obs::trace::{self, TraceContext};
use fmml_obs::{log_event, Clock, Counter, Gauge, Histogram, Unit};
use fmml_serve::protocol::{
    encode_frame_with, write_bytes, Frame, FrameReader, RawFrame, WireCodec, HEADER_LEN,
    MAX_FRAME_LEN,
};
use fmml_serve::session::{
    await_opening, CoreConfig, Identity, LifecycleMetrics, Lineage, Opening, SessionCore,
    TokenStyle, CLAIM_WAIT,
};
use fmml_serve::{Accepted, Conn, Connector, TcpConnector, TcpTransport, Transport};
use std::collections::{BTreeMap, HashMap, HashSet, VecDeque};
use std::io;
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Session-lifecycle metrics, bumped by the session core.
static METRICS: LifecycleMetrics = LifecycleMetrics {
    sessions: Counter::new("cluster.sessions"),
    active: Gauge::new("cluster.sessions.active"),
    parked: Gauge::new("cluster.sessions.parked"),
    resumes: Counter::new("cluster.resumes"),
    resume_misses: Counter::new("cluster.resume_misses"),
    replayed: Counter::new("cluster.replayed"),
    replies: Counter::new("cluster.replies"),
    malformed: Counter::new("cluster.malformed"),
};
static CL_FORWARDED: Counter = Counter::new("cluster.forwarded");
static CL_MIGRATIONS: Counter = Counter::new("cluster.migrations");
static CL_WARMUP: Counter = Counter::new("cluster.warmup_replayed");
static CL_PROBE_FAILS: Counter = Counter::new("cluster.probe.failures");
static CL_STUCK: Counter = Counter::new("cluster.stuck_resends");
static CL_BACKENDS_UP: Gauge = Gauge::new("cluster.backends.up");
static CL_ROUTE_US: Histogram = Histogram::new("cluster.route_us", Unit::Micros);

/// Router tuning knobs. Every duration reads the injected [`Clock`]:
/// under the simulation harness's virtual clock, probe patience, dial
/// deadlines and the pending-repair timeout all advance with virtual
/// time, so a simtest seed explores timeout behaviour deterministically
/// instead of racing the wall clock.
#[derive(Debug, Clone)]
pub struct RouterConfig {
    /// Frontend bind address (TCP spawn only); port `0` is ephemeral.
    pub addr: String,
    /// Seed of the placement ring — two routers configured with the
    /// same seed and members place sessions identically.
    pub ring_seed: u64,
    /// Virtual nodes per backend on the ring.
    pub vnodes: usize,
    /// Router-side per-session replay window (client resumes).
    pub replay_window: usize,
    /// Liveness probe cadence (injected clock — virtual under sim).
    pub probe_interval: Duration,
    /// Probe reply patience (injected clock). A healthy backend answers
    /// before any time passes; only a stalled link spends this.
    pub probe_timeout: Duration,
    /// Consecutive probe failures before a backend is marked down and
    /// removed from the ring.
    pub probe_failures: u32,
    /// Backend dial+handshake patience (injected clock).
    pub dial_timeout: Duration,
    /// How long an in-flight interval may go unanswered (injected
    /// clock) before its session is force-migrated and everything still
    /// pending is re-sent. This is the repair path for partition
    /// stalls: a frame written into a silently-partitioned link
    /// produces no I/O error and no reply until the partition heals —
    /// which may be never. Only reply absence reveals it.
    pub pending_timeout: Duration,
    /// Frame cap on client connections.
    pub client_frame_len: usize,
    /// Frame cap on router↔backend links — raised above the client cap
    /// because migration warm-up batches ride on them.
    pub backend_frame_len: usize,
    /// Socket read poll granularity.
    pub read_timeout: Duration,
    /// Socket write timeout (slow-reader guard).
    pub write_timeout: Duration,
    /// Sessions whose client vanished are kept resumable this long
    /// (injected clock) before being dropped.
    pub parked_ttl: Duration,
    /// Preferred wire codec for client sessions and backend links. The
    /// router negotiates [`WireCodec::Bin1`] only with peers that
    /// advertise it; everyone else stays on JSON, so mixed fleets keep
    /// working (`--wire` on `fmml cluster`).
    pub wire: WireCodec,
    /// Time source for probe cadence, dial/pending deadlines and parked
    /// TTLs.
    pub clock: Clock,
}

impl Default for RouterConfig {
    fn default() -> RouterConfig {
        RouterConfig {
            addr: "127.0.0.1:0".into(),
            ring_seed: 0x5eed_0c15,
            vnodes: 64,
            replay_window: 1024,
            probe_interval: Duration::from_millis(200),
            probe_timeout: Duration::from_millis(250),
            probe_failures: 3,
            dial_timeout: Duration::from_secs(2),
            pending_timeout: Duration::from_secs(2),
            client_frame_len: MAX_FRAME_LEN,
            backend_frame_len: 4 * MAX_FRAME_LEN,
            read_timeout: Duration::from_millis(25),
            write_timeout: Duration::from_secs(2),
            parked_ttl: Duration::from_secs(30),
            wire: WireCodec::Json,
            clock: Clock::System,
        }
    }
}

/// One backend's registration + health state.
struct BackendEntry<B> {
    connector: Arc<B>,
    up: bool,
    fails: u32,
    /// Last probed `slo.queue_depth` (load signal; `-1` = unknown).
    load: i64,
}

/// Introspection snapshot of one backend ([`RouterHandle::backends`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BackendInfo {
    pub name: String,
    pub up: bool,
    /// Last probed queue depth (`-1` before the first successful probe).
    pub load: i64,
}

/// An interval forwarded to a backend and not yet answered.
struct PendingEntry {
    port: usize,
    /// The client's `Interval` frame exactly as it arrived on the wire
    /// (any codec — backend readers sniff per frame), forwarded and
    /// re-sent verbatim on migration.
    bytes: Vec<u8>,
    /// Injected-clock send time (virtual under the simulation harness).
    sent_at: Instant,
    trace_id: Option<u64>,
}

/// One ingested update retained for migration warm-up.
struct HistEntry {
    seq: u64,
    port: usize,
    bytes: Vec<u8>,
}

/// The backend-facing half of a session, guarded by one mutex: which
/// shard it lives on, the write half of the link, and the migration
/// bookkeeping. `epoch` increments on every (re)placement; a link
/// reader only acts while its epoch is current, so a superseded link
/// can never corrupt state after a migration.
struct RouteState<CB: Conn> {
    backend: String,
    writer: Option<CB>,
    epoch: u64,
    /// Codec the current backend link negotiated in its `Welcome` —
    /// what router-originated frames on this link (`Bye`) are encoded
    /// in. Routed payloads pass through verbatim regardless.
    link: WireCodec,
    pending: BTreeMap<u64, PendingEntry>,
    history: VecDeque<HistEntry>,
    /// Warm-up seqs whose backend replies must be dropped (the client
    /// was already answered before the migration).
    swallow: HashSet<u64>,
    /// Client said `Bye`; re-send it after any migration so the drain
    /// handshake completes on the new shard.
    bye: bool,
}

impl<CB: Conn> RouteState<CB> {
    /// Retain `seq`'s update for warm-up, keeping at most `w - 1`
    /// entries per port (exactly the window a fresh backend needs).
    fn push_history(&mut self, seq: u64, port: usize, bytes: Vec<u8>, window_intervals: usize) {
        let cap = window_intervals.saturating_sub(1);
        if cap == 0 {
            return;
        }
        self.history.push_back(HistEntry { seq, port, bytes });
        let count = self.history.iter().filter(|h| h.port == port).count();
        if count > cap {
            if let Some(pos) = self.history.iter().position(|h| h.port == port) {
                self.history.remove(pos);
            }
        }
    }
}

struct SessionInner<CF: Conn, CB: Conn> {
    id: u64,
    /// The client's `Hello` with resume fields stripped — re-sent to
    /// every backend the session is placed on.
    hello: Frame,
    window_intervals: usize,
    /// Token, codec (fixed at birth), replay log and answered-seq
    /// watermark — the client-facing exactly-once state.
    lineage: Lineage,
    deadline_ms: AtomicU64,
    front: Mutex<Option<CF>>,
    answered: AtomicU64,
    state: Mutex<RouteState<CB>>,
    done: AtomicBool,
}

impl<CF: Conn, CB: Conn> SessionInner<CF, CB> {
    fn done(&self) -> bool {
        self.done.load(Ordering::Acquire)
    }

    fn route(&self) -> MutexGuard<'_, RouteState<CB>> {
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// The current link epoch (bumped by every placement).
    fn epoch(&self) -> u64 {
        self.route().epoch
    }

    /// The resume token: the session's placement key and map key.
    fn token(&self) -> &str {
        self.lineage.token().unwrap_or_default()
    }

    /// Hang up on the client, if one is attached.
    fn drop_client(&self) {
        let front = self
            .front
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .take();
        if let Some(c) = front {
            c.shutdown_both();
        }
    }

    /// Encode a router-originated frame in the client's codec.
    fn encode(&self, frame: &Frame, max_len: usize) -> Option<Vec<u8>> {
        encode_frame_with(frame, self.lineage.codec(), max_len).ok()
    }

    /// Write `bytes` to the client if one is attached; a failed write
    /// parks the session (the replay log already has the reply).
    fn send_client(&self, bytes: &[u8]) -> bool {
        let mut g = self.front.lock().unwrap_or_else(PoisonError::into_inner);
        match g.as_mut() {
            None => false,
            Some(c) => match write_bytes(c, bytes) {
                Ok(()) => true,
                Err(_) => {
                    c.shutdown_both();
                    *g = None;
                    false
                }
            },
        }
    }

    /// Commit a reply to the lineage, *then* write it to the client
    /// (record-before-send, like the single-node server).
    fn commit_reply(&self, seq: u64, bytes: &[u8]) {
        self.lineage.commit(seq, bytes);
        self.answered.fetch_add(1, Ordering::Relaxed);
        self.send_client(bytes);
    }
}

type Session<CF, CB> = Arc<SessionInner<CF, CB>>;

/// Live sessions (attached and parked) by resume token.
type SessionMap<CF, CB> = HashMap<String, Session<CF, CB>>;

struct RouterShared<CF: Conn, B: Connector> {
    cfg: RouterConfig,
    ring: Mutex<HashRing>,
    backends: Mutex<BTreeMap<String, BackendEntry<B>>>,
    sessions: Mutex<SessionMap<CF, B::Conn>>,
    /// The client-facing session protocol; parked sessions keep their
    /// backend link (replies still commit to the lineage meanwhile).
    core: SessionCore<Session<CF, B::Conn>>,
    migrations: AtomicU64,
    threads: Mutex<Vec<JoinHandle<()>>>,
    shutdown: AtomicBool,
}

impl<CF: Conn, B: Connector> RouterShared<CF, B> {
    fn shutting_down(&self) -> bool {
        self.shutdown.load(Ordering::Acquire)
    }

    fn ring(&self) -> MutexGuard<'_, HashRing> {
        self.ring.lock().unwrap_or_else(PoisonError::into_inner)
    }

    fn backends(&self) -> MutexGuard<'_, BTreeMap<String, BackendEntry<B>>> {
        self.backends.lock().unwrap_or_else(PoisonError::into_inner)
    }

    fn sessions(&self) -> MutexGuard<'_, SessionMap<CF, B::Conn>> {
        self.sessions.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// A snapshot of every tracked session (attached and parked).
    fn session_list(&self) -> Vec<Session<CF, B::Conn>> {
        self.sessions().values().cloned().collect()
    }

    fn reap_threads(&self) {
        let mut ts = self.threads.lock().unwrap_or_else(PoisonError::into_inner);
        ts.retain(|h| !h.is_finished());
    }

    fn track(&self, h: JoinHandle<()>) {
        let mut ts = self.threads.lock().unwrap_or_else(PoisonError::into_inner);
        ts.retain(|t| !t.is_finished());
        ts.push(h);
    }

    fn backends_up(&self) -> usize {
        self.backends().values().filter(|b| b.up).count()
    }

    /// Mark `name` failed (dial error or probe miss); past the failure
    /// budget it leaves the ring and its sessions migrate. Returns true
    /// if this call demoted it.
    fn mark_backend_failed(&self, name: &str) -> bool {
        let mut demoted = false;
        {
            let mut bs = self.backends();
            if let Some(b) = bs.get_mut(name) {
                b.fails = b.fails.saturating_add(1);
                CL_PROBE_FAILS.inc();
                if b.up && b.fails >= self.cfg.probe_failures {
                    b.up = false;
                    demoted = true;
                }
            }
        }
        if demoted {
            log_event!("cluster.backend.down", "backend" = name);
            self.ring().remove(name);
            CL_BACKENDS_UP.set(self.backends_up() as i64);
        }
        demoted
    }
}

/// A running router, generic over the frontend connection type and the
/// backend connector (`TcpStream`/`TcpConnector` in production,
/// `SimConn`/`SimConnector` under the simulation harness).
pub struct RouterHandle<CF: Conn = TcpStream, B: Connector = TcpConnector> {
    addr: Option<SocketAddr>,
    shared: Arc<RouterShared<CF, B>>,
    acceptor: Option<JoinHandle<()>>,
    prober: Option<JoinHandle<()>>,
}

impl<B: Connector + Send + Sync + 'static> RouterHandle<TcpStream, B> {
    /// The bound frontend address (resolves ephemeral ports).
    pub fn addr(&self) -> SocketAddr {
        self.addr.expect("TCP router always has a bound address")
    }
}

impl<CF: Conn, B: Connector + Send + Sync + 'static> RouterHandle<CF, B> {
    /// Register a backend and (optimistically) add it to the ring. The
    /// prober demotes it if it turns out to be unreachable. A join
    /// rebalances: only sessions in the ring ranges the new node took
    /// over migrate onto it.
    pub fn add_backend(&self, name: &str, connector: B) {
        {
            let mut bs = self.shared.backends();
            bs.insert(
                name.to_string(),
                BackendEntry {
                    connector: Arc::new(connector),
                    up: true,
                    fails: 0,
                    load: -1,
                },
            );
        }
        self.shared.ring().add(name);
        CL_BACKENDS_UP.set(self.shared.backends_up() as i64);
        log_event!("cluster.backend.join", "backend" = name);
        rebalance(&self.shared);
    }

    /// Gracefully remove a backend: take it off the ring and migrate
    /// its sessions elsewhere (warm-up replay preserves exactly-once).
    pub fn remove_backend(&self, name: &str) {
        self.shared.ring().remove(name);
        self.shared.backends().remove(name);
        CL_BACKENDS_UP.set(self.shared.backends_up() as i64);
        log_event!("cluster.backend.leave", "backend" = name);
        rebalance(&self.shared);
    }

    /// Health + load snapshot of every registered backend.
    pub fn backends(&self) -> Vec<BackendInfo> {
        self.shared
            .backends()
            .iter()
            .map(|(name, b)| BackendInfo {
                name: name.clone(),
                up: b.up,
                load: b.load,
            })
            .collect()
    }

    /// This router's counters as a [`Frame::StatsReply`].
    pub fn stats(&self) -> Frame {
        self.shared.core.counters().stats_frame()
    }

    /// `(sessions migrated, sessions resumed, replies replayed)`.
    pub fn cluster_stats(&self) -> (u64, u64, u64) {
        let c = self.shared.core.counters();
        (
            self.shared.migrations.load(Ordering::Relaxed),
            c.resumes.load(Ordering::Relaxed),
            c.replayed.load(Ordering::Relaxed),
        )
    }

    /// Sessions currently tracked (active + parked).
    pub fn session_count(&self) -> usize {
        self.shared.sessions().len()
    }

    /// Stop accepting, kill every session and link, join all threads.
    /// Returns the router's final stats.
    pub fn shutdown(mut self) -> Frame {
        self.shared.shutdown.store(true, Ordering::Release);
        if let Some(vc) = self.shared.cfg.clock.virtual_handle() {
            vc.set_auto_advance(true);
        }
        // Wake every blocked reader by killing its connection.
        for s in self.shared.session_list() {
            s.drop_client();
            retire(&self.shared, &s);
        }
        if let Some(a) = self.acceptor.take() {
            let _ = a.join();
        }
        if let Some(p) = self.prober.take() {
            let _ = p.join();
        }
        loop {
            let drained = {
                let mut ts = self
                    .shared
                    .threads
                    .lock()
                    .unwrap_or_else(PoisonError::into_inner);
                std::mem::take(&mut *ts)
            };
            if drained.is_empty() {
                break;
            }
            for t in drained {
                let _ = t.join();
            }
        }
        log_event!(
            "cluster.shutdown",
            "sessions" = self.shared.core.counters().sessions.load(Ordering::Relaxed),
            "migrations" = self.shared.migrations.load(Ordering::Relaxed)
        );
        self.shared.core.counters().stats_frame()
    }
}

/// Spawn a TCP router on `cfg.addr`. Backends are registered afterwards
/// via [`RouterHandle::add_backend`].
pub fn spawn(cfg: RouterConfig) -> io::Result<RouterHandle<TcpStream, TcpConnector>> {
    let transport = TcpTransport::bind(&cfg.addr)?;
    let addr = transport.addr();
    let mut handle = spawn_with(transport, cfg);
    handle.addr = Some(addr);
    Ok(handle)
}

/// Spawn a router over an arbitrary frontend [`Transport`] — the
/// simulation harness passes a `SimTransport` here and per-backend
/// `SimConnector`s to [`RouterHandle::add_backend`], and the whole
/// cluster runs in memory on virtual time.
pub fn spawn_with<F, B>(frontend: F, cfg: RouterConfig) -> RouterHandle<F::Conn, B>
where
    F: Transport,
    B: Connector + Send + Sync + 'static,
{
    let core = SessionCore::new(CoreConfig {
        wire: cfg.wire,
        // Placement keys on the token, so every router lineage is
        // resumable: parking is unbounded (TTL only) and the replay
        // window is never zero.
        replay_window: cfg.replay_window.max(1),
        max_parked: usize::MAX,
        parked_ttl: cfg.parked_ttl,
        claim_wait: CLAIM_WAIT,
        clock: cfg.clock.clone(),
        injected_bug: None,
        tokens: TokenStyle::Router {
            seed: cfg.ring_seed ^ 0x0be5_5ed5_eed5_eed5,
        },
        metrics: &METRICS,
    });
    let shared = Arc::new(RouterShared {
        ring: Mutex::new(HashRing::new(cfg.ring_seed, cfg.vnodes)),
        cfg,
        backends: Mutex::new(BTreeMap::new()),
        sessions: Mutex::new(HashMap::new()),
        core,
        migrations: AtomicU64::new(0),
        threads: Mutex::new(Vec::new()),
        shutdown: AtomicBool::new(false),
    });

    let acceptor = {
        let shared = Arc::clone(&shared);
        std::thread::Builder::new()
            .name("cluster-acceptor".into())
            .spawn(move || {
                let desc = frontend.desc();
                log_event!("cluster.listening", "addr" = desc.as_str());
                loop {
                    match frontend.accept() {
                        Accepted::Conn(conn) => {
                            let sh = Arc::clone(&shared);
                            let h = std::thread::Builder::new()
                                .name("cluster-session".into())
                                .spawn(move || handle_client(&sh, conn))
                                .expect("spawn cluster session");
                            shared.track(h);
                        }
                        Accepted::Retry => {
                            if shared.shutting_down() {
                                break;
                            }
                            shared.reap_threads();
                            std::thread::sleep(Duration::from_millis(2));
                        }
                        Accepted::Closed => break,
                    }
                }
            })
            .expect("spawn cluster acceptor")
    };

    let prober = {
        let shared = Arc::clone(&shared);
        std::thread::Builder::new()
            .name("cluster-prober".into())
            .spawn(move || prober_loop(&shared))
            .expect("spawn cluster prober")
    };

    RouterHandle {
        addr: None,
        shared,
        acceptor: Some(acceptor),
        prober: Some(prober),
    }
}

/// Dial `connector`, send `frame` (JSON: nothing is negotiated yet) and
/// wait at most `patience` for the first frame back. Patience runs on
/// the injected clock: under a virtual clock a stalled link times out
/// when the simulation advances time, not when the wall clock does — so
/// the wait also honors `abort` (shutdown), or a request in flight when
/// the simulation stops advancing time would never reach its deadline.
fn request<B: Connector>(
    cfg: &RouterConfig,
    connector: &B,
    frame: &Frame,
    patience: Duration,
    abort: impl Fn() -> bool,
) -> Option<(B::Conn, FrameReader<B::Conn>, Frame)> {
    let mut conn = connector.connect().ok()?;
    let _ = conn.set_read_timeout(Some(Duration::from_millis(2)));
    let _ = conn.set_write_timeout(Some(cfg.write_timeout));
    let _ = conn.set_nodelay(true);
    let mut reader = FrameReader::with_max_len(conn.try_clone().ok()?, cfg.backend_frame_len);
    let bytes = encode_frame_with(frame, WireCodec::Json, cfg.backend_frame_len).ok()?;
    write_bytes(&mut conn, &bytes).ok()?;
    let deadline = cfg.clock.now() + patience;
    loop {
        match reader.poll_frame() {
            Ok(Some(reply)) => return Some((conn, reader, reply)),
            Ok(None) if cfg.clock.now() < deadline && !abort() => {}
            _ => return None,
        }
    }
}

/// Probe a backend with one `MetricsDump`; returns its queue depth (the
/// load signal).
fn probe_backend<B: Connector>(
    cfg: &RouterConfig,
    connector: &B,
    abort: impl Fn() -> bool,
) -> Option<i64> {
    let (_, _, reply) = request(
        cfg,
        connector,
        &Frame::MetricsDump,
        cfg.probe_timeout,
        abort,
    )?;
    let Frame::MetricsReply { json } = reply else {
        return None;
    };
    let dump = serde_json::from_str::<serde_json::Value>(&json).ok();
    Some(
        dump.and_then(|v| v.get("metrics")?.get("slo.queue_depth")?.as_i64())
            .unwrap_or(0),
    )
}

/// Health loop: probe every backend each tick, demote after
/// `probe_failures` consecutive misses (ring leave + migration),
/// promote on recovery (ring join + rebalance), and expire parked
/// sessions past their TTL.
fn prober_loop<CF: Conn, B: Connector + Send + Sync + 'static>(shared: &Arc<RouterShared<CF, B>>) {
    loop {
        if shared.shutting_down() {
            return;
        }
        let snapshot: Vec<(String, Arc<B>, bool)> = {
            let bs = shared.backends();
            bs.iter()
                .map(|(n, b)| (n.clone(), Arc::clone(&b.connector), b.up))
                .collect()
        };
        for (name, connector, was_up) in snapshot {
            match probe_backend(&shared.cfg, connector.as_ref(), || shared.shutting_down()) {
                Some(load) => {
                    let mut promoted = false;
                    {
                        let mut bs = shared.backends();
                        if let Some(b) = bs.get_mut(&name) {
                            b.fails = 0;
                            b.load = load;
                            if !b.up {
                                b.up = true;
                                promoted = true;
                            }
                        }
                    }
                    if promoted {
                        log_event!("cluster.backend.up", "backend" = name.as_str());
                        shared.ring().add(&name);
                        CL_BACKENDS_UP.set(shared.backends_up() as i64);
                        rebalance(shared);
                    }
                }
                None => {
                    if shared.mark_backend_failed(&name) && was_up {
                        rebalance(shared);
                    }
                }
            }
        }
        sweep_parked(shared);
        sweep_stuck(shared);
        shared.reap_threads();
        shared.cfg.clock.sleep(shared.cfg.probe_interval);
    }
}

/// Tear down parked sessions whose TTL (injected clock) expired.
fn sweep_parked<CF: Conn, B: Connector>(shared: &Arc<RouterShared<CF, B>>) {
    for s in shared.core.expire() {
        retire(shared, &s);
        log_event!("cluster.session.expired", "session" = s.id);
    }
}

/// End a session for good: stop its link and forget it.
fn retire<CF: Conn, B: Connector>(
    shared: &RouterShared<CF, B>,
    session: &SessionInner<CF, B::Conn>,
) {
    session.done.store(true, Ordering::Release);
    if let Some(c) = session.route().writer.take() {
        c.shutdown_both();
    }
    shared.sessions().remove(session.token());
}

/// Force-migrate any session whose oldest in-flight interval has gone
/// unanswered past `pending_timeout`. A partition stalls frames
/// already written into the link without an error, for possibly
/// unbounded time. The epoch bump re-dials the ring target (possibly
/// the same node), shuts the old link (crash semantics: its stalled
/// frames die with it) and re-sends everything still pending; the
/// epoch guard on the old link keeps a late original reply from
/// double-committing, and warm-up makes the re-computed replies
/// bitwise identical.
fn sweep_stuck<CF: Conn, B: Connector + Send + Sync + 'static>(shared: &Arc<RouterShared<CF, B>>) {
    let timeout = shared.cfg.pending_timeout;
    let now = shared.cfg.clock.now();
    let sessions = shared.session_list();
    for session in sessions {
        if session.done() {
            continue;
        }
        let epoch = {
            let st = session.route();
            let aged = st
                .pending
                .values()
                .any(|p| now.saturating_duration_since(p.sent_at) > timeout);
            // A goodbye whose link died (or that never found a live
            // backend) has no pending entry to age: `bye` with no
            // writer is the same "will never be answered" state.
            let orphaned_bye = st.bye && st.writer.is_none();
            if !aged && !orphaned_bye {
                continue;
            }
            st.epoch
        };
        CL_STUCK.inc();
        log_event!("cluster.session.stuck", "session" = session.id);
        migrate(shared, &session, epoch);
    }
}

/// Re-place every session whose ring assignment no longer matches where
/// it lives — exactly the sessions in the token ranges a join/leave
/// moved; everyone else stays put (bounded churn).
///
/// The migrations run on a tracked background thread, never inline on
/// the caller: membership changes arrive through the public API from
/// arbitrary threads, and under a virtual clock the caller (the test
/// driver) is the very thread that advances time — migrating inline
/// would park it inside dial deadlines only it could expire.
fn rebalance<CF: Conn, B: Connector + Send + Sync + 'static>(shared: &Arc<RouterShared<CF, B>>) {
    let shared2 = Arc::clone(shared);
    let spawned = std::thread::Builder::new()
        .name("cluster-rebalance".into())
        .spawn(move || rebalance_sync(&shared2));
    match spawned {
        Ok(h) => shared.track(h),
        // Out of threads: degrade to the blocking path rather than
        // dropping the rebalance.
        Err(_) => rebalance_sync(shared),
    }
}

fn rebalance_sync<CF: Conn, B: Connector + Send + Sync + 'static>(
    shared: &Arc<RouterShared<CF, B>>,
) {
    let sessions = shared.session_list();
    for session in sessions {
        if session.done() {
            continue;
        }
        let desired = {
            let ring = shared.ring();
            ring.assign(session.token()).map(String::from)
        };
        let Some(desired) = desired else { continue };
        let epoch = {
            let st = session.route();
            // Re-place when the assignment moved — or when the session
            // has no live link at all (it was stranded by an empty ring
            // and its assigned member has since come back: the name
            // matches but nothing is connected).
            if st.backend == desired && st.writer.is_some() {
                continue;
            }
            st.epoch
        };
        migrate(shared, &session, epoch);
    }
}

/// What a backend handshake attempt came back with.
enum DialOutcome<CB: Conn> {
    Ok {
        writer: CB,
        reader: FrameReader<CB>,
        deadline_ms: u64,
        /// Codec the backend's `Welcome` picked for this link.
        codec: WireCodec,
    },
    /// The backend answered `Error{draining}` — place elsewhere.
    Draining,
    Failed,
}

/// Dial `connector` and run the session's `Hello` handshake.
fn dial_backend<CF: Conn, B: Connector>(
    shared: &RouterShared<CF, B>,
    connector: &B,
    hello: &Frame,
) -> DialOutcome<B::Conn> {
    let cfg = &shared.cfg;
    match request(cfg, connector, hello, cfg.dial_timeout, || {
        shared.shutting_down()
    }) {
        Some((
            writer,
            reader,
            Frame::Welcome {
                deadline_ms, codec, ..
            },
        )) => DialOutcome::Ok {
            writer,
            reader,
            deadline_ms,
            codec: codec
                .as_deref()
                .and_then(WireCodec::parse)
                .unwrap_or_default(),
        },
        Some((_, _, Frame::Error { code, .. })) if code == "draining" => DialOutcome::Draining,
        _ => DialOutcome::Failed,
    }
}

/// (Re-)place `session` on the shard the ring assigns it to: dial, run
/// the warm-up replay (`history`, replies swallowed), re-send `pending`
/// in seq order, and hand the link to a fresh reader thread. Retries —
/// marking failed backends down as it goes — until it commits, the
/// session ends, the epoch moves (someone else migrated first), or the
/// ring runs out of live members (each retry either succeeds or demotes
/// a member, so the loop is bounded; an un-placed session is repaired
/// by `sweep_stuck` / the next rebalance).
fn migrate<CF: Conn, B: Connector + Send + Sync + 'static>(
    shared: &Arc<RouterShared<CF, B>>,
    session: &Arc<SessionInner<CF, B::Conn>>,
    from_epoch: u64,
) {
    loop {
        if shared.shutting_down() || session.done() {
            return;
        }
        if session.epoch() != from_epoch {
            return;
        }
        let target = {
            let ring = shared.ring();
            ring.assign(session.token()).map(String::from)
        };
        let Some(target) = target else {
            // No live backend. Do NOT spin here: migrate runs on
            // driver/prober threads, and under a virtual clock a
            // blocked caller is exactly what keeps the prober from
            // promoting a backend again (circular wait). Explicitly
            // un-place the session — sever any stale link and clear the
            // owner — so the next join/promotion rebalance (or
            // `sweep_stuck`) re-places it: a session that *looks*
            // placed (name set, dead writer) would be skipped forever.
            {
                let mut st = session.route();
                if st.epoch == from_epoch {
                    if let Some(w) = st.writer.take() {
                        w.shutdown_both();
                    }
                    st.backend.clear();
                }
            }
            log_event!("cluster.migrate.no_backend", "session" = session.id);
            return;
        };
        let connector = {
            let bs = shared.backends();
            bs.get(&target).map(|b| Arc::clone(&b.connector))
        };
        let Some(connector) = connector else { continue };
        match dial_backend(shared, connector.as_ref(), &session.hello) {
            DialOutcome::Failed => {
                shared.mark_backend_failed(&target);
                // Injected-clock backoff: under the simulation harness
                // the driver's idle pump advances virtual time, so the
                // retry never burns a wall-clock budget.
                shared.cfg.clock.sleep(Duration::from_millis(2));
                continue;
            }
            DialOutcome::Draining => {
                // A draining node refuses new placements: treat like a
                // leave for this session's range.
                log_event!("cluster.backend.draining", "backend" = target.as_str());
                shared.ring().remove(&target);
                continue;
            }
            DialOutcome::Ok {
                mut writer,
                reader,
                deadline_ms,
                codec,
            } => {
                session.deadline_ms.store(deadline_ms, Ordering::Relaxed);
                let epoch = {
                    let mut st = session.route();
                    if st.epoch != from_epoch {
                        writer.shutdown_both();
                        return;
                    }
                    st.epoch += 1;
                    let epoch = st.epoch;
                    if let Some(old) = st.writer.take() {
                        old.shutdown_both();
                    }
                    st.backend = target.clone();
                    st.link = codec;
                    // Warm-up: replay the ingested window so the new
                    // shard's sliding state matches the old one's
                    // exactly; its replies are swallowed.
                    st.swallow = st.history.iter().map(|h| h.seq).collect();
                    log_event!(
                        "cluster.migrate.resend",
                        "session" = session.id,
                        "epoch" = epoch,
                        "history" = st.history.len() as u64,
                        "pending" = st.pending.len() as u64,
                        "pend_lo" = st.pending.keys().next().copied().unwrap_or(0),
                        "pend_hi" = st.pending.keys().next_back().copied().unwrap_or(0)
                    );
                    let mut ok = true;
                    for h in &st.history {
                        if write_bytes(&mut writer, &h.bytes).is_err() {
                            ok = false;
                            break;
                        }
                        CL_WARMUP.inc();
                    }
                    // Re-send pending in seq order (exactly-once: the
                    // client never saw replies for these).
                    if ok {
                        let now = shared.cfg.clock.now();
                        for p in st.pending.values_mut() {
                            p.sent_at = now;
                            if write_bytes(&mut writer, &p.bytes).is_err() {
                                ok = false;
                                break;
                            }
                        }
                    }
                    if ok && st.bye {
                        if let Ok(bye) =
                            encode_frame_with(&Frame::Bye, codec, shared.cfg.backend_frame_len)
                        {
                            ok = write_bytes(&mut writer, &bye).is_ok();
                        }
                    }
                    if !ok {
                        // The fresh link died mid-warm-up; undo nothing
                        // (pending/history intact) and retry from the
                        // new epoch.
                        writer.shutdown_both();
                        st.writer = None;
                        drop(st);
                        shared.mark_backend_failed(&target);
                        return migrate(shared, session, epoch);
                    }
                    st.writer = Some(writer);
                    epoch
                };
                // Epoch 1 is the initial placement; only re-placements
                // count as migrations.
                if epoch > 1 {
                    CL_MIGRATIONS.inc();
                    shared.migrations.fetch_add(1, Ordering::Relaxed);
                }
                log_event!(
                    "cluster.migrate",
                    "session" = session.id,
                    "backend" = target.as_str(),
                    "epoch" = epoch
                );
                let sh = Arc::clone(shared);
                let sess = Arc::clone(session);
                let h = std::thread::Builder::new()
                    .name("cluster-link".into())
                    .spawn(move || link_loop(&sh, &sess, reader, epoch))
                    .expect("spawn cluster link");
                shared.track(h);
                return;
            }
        }
    }
}

/// Read replies off one backend link and forward them to the client.
/// Exits when superseded (epoch moved), on session end, or after
/// migrating a dead link.
fn link_loop<CF: Conn, B: Connector + Send + Sync + 'static>(
    shared: &Arc<RouterShared<CF, B>>,
    session: &Arc<SessionInner<CF, B::Conn>>,
    mut reader: FrameReader<B::Conn>,
    my_epoch: u64,
) {
    loop {
        if shared.shutting_down() || session.done() {
            return;
        }
        match reader.poll_frame_raw() {
            Ok(None) => {
                if session.epoch() != my_epoch {
                    return;
                }
            }
            Ok(Some(raw)) => {
                if !handle_backend_frame(shared, session, raw, my_epoch) {
                    return;
                }
            }
            Err(_) => {
                if shared.shutting_down() || session.done() {
                    return;
                }
                if session.epoch() != my_epoch {
                    return;
                }
                migrate(shared, session, my_epoch);
                return;
            }
        }
    }
}

/// Process one backend reply. Returns false when this link thread
/// should exit.
///
/// Replies are routed from the frame *as it sits on the wire*: a
/// wire-v2 payload exposes its tag and seq at fixed offsets
/// ([`RawFrame::meta`]), so the hot path (`Ack`/`Imputed`) never decodes
/// the body, and the bytes the backend produced are committed to the
/// replay log and the client verbatim — no re-encode, no frame-cap
/// mismatch (the old decode→`encode_frame` round trip silently dropped
/// any legal reply over the *default* cap on links configured with a
/// raised one), and bitwise-identical content across the hop by
/// construction. JSON payloads and rare control frames take the full
/// decode fallback.
fn handle_backend_frame<CF: Conn, B: Connector + Send + Sync + 'static>(
    shared: &Arc<RouterShared<CF, B>>,
    session: &Arc<SessionInner<CF, B::Conn>>,
    raw: RawFrame,
    my_epoch: u64,
) -> bool {
    let (seq, ingested) = match raw.meta() {
        // `meta()` only yields seq-carrying tags; a backend never sends
        // `Interval`, so anything else here is bogus and falls through
        // to the decode path below to be ignored or rejected.
        Some(m) if matches!(m.tag, "Ack" | "Imputed" | "Busy" | "Reject") => {
            (m.seq, matches!(m.tag, "Ack" | "Imputed"))
        }
        _ => match raw.decode() {
            Ok(frame) => match route_control_frame(shared, session, frame, my_epoch) {
                ControlRouted::Reply { seq, ingested } => (seq, ingested),
                ControlRouted::Continue => return true,
                ControlRouted::Exit => return false,
            },
            Err(_) => {
                // A frame that framed correctly but fails to decode
                // means the link is corrupt: repair exactly like a read
                // error.
                if session.epoch() != my_epoch {
                    return false;
                }
                if !shared.shutting_down() && !session.done() {
                    migrate(shared, session, my_epoch);
                }
                return false;
            }
        },
    };

    {
        let mut st = session.route();
        if st.epoch != my_epoch {
            return false;
        }
        if st.swallow.remove(&seq) {
            // Warm-up echo: the client was answered long ago.
            return true;
        }
        if session.lineage.logged(seq).is_some() {
            // Raced a migration: the old link's reply landed first.
            return true;
        }
        if let Some(p) = st.pending.remove(&seq) {
            let elapsed = shared.cfg.clock.now().saturating_duration_since(p.sent_at);
            CL_ROUTE_US.record(elapsed.as_nanos() as u64);
            if let Some(tid) = p.trace_id {
                // Parent the router hop into the interval's trace (the
                // backend rooted `serve.interval` under the same id).
                let ctx = TraceContext {
                    trace_id: tid,
                    span_id: 0,
                };
                trace::record_span("cluster.route", ctx, p.sent_at, elapsed);
            }
            if ingested {
                st.push_history(seq, p.port, p.bytes, session.window_intervals);
            }
        }
    }
    session.commit_reply(seq, raw.bytes());
    shared.core.reply_sent();
    true
}

/// What [`route_control_frame`] decided about a fully-decoded backend
/// frame.
enum ControlRouted {
    /// A seq-carrying reply (JSON link): route it like the fast path.
    Reply { seq: u64, ingested: bool },
    /// Nothing to route; keep reading.
    Continue,
    /// The link thread should exit.
    Exit,
}

/// Handle the decoded-frame fallback of [`handle_backend_frame`]:
/// `ByeAck` completes the session, `Error` triggers re-placement, JSON
/// replies are routed by seq, and stray control frames are ignored.
fn route_control_frame<CF: Conn, B: Connector + Send + Sync + 'static>(
    shared: &Arc<RouterShared<CF, B>>,
    session: &Arc<SessionInner<CF, B::Conn>>,
    frame: Frame,
    my_epoch: u64,
) -> ControlRouted {
    match &frame {
        Frame::Ack { seq, .. }
        | Frame::Imputed { seq, .. }
        | Frame::Busy { seq, .. }
        | Frame::Reject { seq, .. } => ControlRouted::Reply {
            seq: *seq,
            ingested: matches!(frame, Frame::Ack { .. } | Frame::Imputed { .. }),
        },
        Frame::ByeAck { .. } => {
            let remaining = {
                let st = session.route();
                if st.epoch != my_epoch {
                    return ControlRouted::Exit;
                }
                st.pending.len() as u64
            };
            let ba = Frame::ByeAck {
                answered: session.answered.load(Ordering::Relaxed),
                remaining,
            };
            if let Some(bytes) = session.encode(&ba, shared.cfg.client_frame_len) {
                session.send_client(&bytes);
            }
            retire(shared, session);
            shared.core.close(&session.lineage);
            log_event!("cluster.session.close", "session" = session.id);
            ControlRouted::Exit
        }
        Frame::Error { code, .. } => {
            // Backend-level error (shutting_down, …): the link is gone.
            log_event!(
                "cluster.backend.error",
                "session" = session.id,
                "code" = code.as_str()
            );
            let cur = {
                let st = session.route();
                st.epoch
            };
            if cur == my_epoch && !shared.shutting_down() && !session.done() {
                migrate(shared, session, my_epoch);
            }
            ControlRouted::Exit
        }
        // Welcome (late), StatsReply, MetricsReply: nothing to route.
        _ => ControlRouted::Continue,
    }
}

/// One client connection: the session core's handshake (probes, `Hello`
/// validation, fresh or resumed lineage), then the forwarding loop.
fn handle_client<CF: Conn, B: Connector + Send + Sync + 'static>(
    shared: &Arc<RouterShared<CF, B>>,
    conn: CF,
) {
    let cfg = &shared.cfg;
    let Some((opening, conn, reader)) = await_opening(
        &shared.core,
        conn,
        cfg.read_timeout,
        cfg.write_timeout,
        cfg.client_frame_len,
        || shared.shutting_down(),
    ) else {
        return;
    };
    let session = match opening {
        Opening::Resume {
            id,
            last_acked,
            state,
        } => resume_client(shared, id, last_acked, state, conn),
        Opening::Fresh {
            id,
            identity,
            lineage,
            expired,
        } => {
            if let Some(stale) = expired {
                retire(shared, &stale);
            }
            place_client(shared, id, identity, lineage, conn)
        }
    };
    if let Some(session) = session {
        client_loop(shared, &session, reader);
    }
}

/// A resumed lineage: re-attach the client, then send the core's
/// `Welcome` and replay. The backend link kept running while the client
/// was away, so there is nothing in flight to drain here.
fn resume_client<CF: Conn, B: Connector + Send + Sync + 'static>(
    shared: &Arc<RouterShared<CF, B>>,
    id: u64,
    last_acked: Option<u64>,
    session: Session<CF, B::Conn>,
    conn: CF,
) -> Option<Session<CF, B::Conn>> {
    if let Some(old) = session
        .front
        .lock()
        .unwrap_or_else(PoisonError::into_inner)
        .replace(conn)
    {
        old.shutdown_both();
    }
    let replay = shared.core.resume(
        id,
        &session.lineage,
        last_acked,
        session.deadline_ms.load(Ordering::Relaxed),
    );
    if !session.send_client(&replay.welcome) {
        park(shared, &session);
        return None;
    }
    let sent = replay
        .replies
        .iter()
        .take_while(|bytes| session.send_client(bytes))
        .count();
    shared.core.resumed(sent as u64);
    log_event!("cluster.session.resume", "session" = session.id);
    Some(session)
}

/// A fresh lineage: place it on the ring, then send the core's
/// `Welcome` (carrying the deadline the backend announced).
fn place_client<CF: Conn, B: Connector + Send + Sync + 'static>(
    shared: &Arc<RouterShared<CF, B>>,
    id: u64,
    identity: Identity,
    lineage: Lineage,
    conn: CF,
) -> Option<Session<CF, B::Conn>> {
    // Advertise binary to the backends only for binary sessions — that
    // way a session's reply bytes are produced in its own codec
    // end-to-end and pass through this router verbatim.
    let hello = Frame::Hello {
        tenant: identity.tenant,
        ports: identity.ports,
        queues: identity.queues,
        interval_len: identity.interval_len,
        window_intervals: identity.window_intervals,
        resume_token: None,
        last_acked: None,
        codecs: (lineage.codec() == WireCodec::Bin1).then(WireCodec::advertise),
    };
    let session = Arc::new(SessionInner {
        id,
        hello,
        window_intervals: identity.window_intervals,
        lineage,
        deadline_ms: AtomicU64::new(0),
        front: Mutex::new(Some(conn)),
        answered: AtomicU64::new(0),
        state: Mutex::new(RouteState {
            backend: String::new(),
            writer: None,
            epoch: 0,
            link: WireCodec::Json,
            pending: BTreeMap::new(),
            history: VecDeque::new(),
            swallow: HashSet::new(),
            bye: false,
        }),
        done: AtomicBool::new(false),
    });
    shared
        .sessions()
        .insert(session.token().to_string(), Arc::clone(&session));

    migrate(shared, &session, 0);
    if shared.shutting_down() || session.done() {
        return None;
    }
    let welcome = shared.core.welcome(
        id,
        &session.lineage,
        session.deadline_ms.load(Ordering::Relaxed),
    );
    if !session.send_client(&welcome) {
        park(shared, &session);
        return None;
    }
    log_event!(
        "cluster.session.open",
        "session" = id,
        "backend" = session.route().backend.as_str()
    );
    Some(session)
}

/// Detach the client connection and park the session in the core,
/// keeping it resumable (its backend link keeps committing replies).
fn park<CF: Conn, B: Connector>(shared: &Arc<RouterShared<CF, B>>, session: &Session<CF, B::Conn>) {
    session.drop_client();
    log_event!("cluster.session.park", "session" = session.id);
    for evicted in shared.core.park(&session.lineage, Arc::clone(session)) {
        retire(shared, &evicted);
    }
}

/// The post-handshake frontend loop: dedup + forward intervals, answer
/// probes, relay `Bye`. Exits by parking on client disconnect or when
/// the session completes.
///
/// Intervals are forwarded to the backend as the exact bytes the client
/// sent (backend readers sniff the codec per frame), decoded here only
/// for validation, dedup and routing metadata — the decode/re-encode
/// round trip of the JSON-era router is gone from both directions of
/// the hot path.
fn client_loop<CF: Conn, B: Connector + Send + Sync + 'static>(
    shared: &Arc<RouterShared<CF, B>>,
    session: &Session<CF, B::Conn>,
    mut reader: FrameReader<CF>,
) {
    let core = &shared.core;
    loop {
        if shared.shutting_down() || session.done() {
            return;
        }
        let raw = match reader.poll_frame_raw() {
            Ok(None) => continue,
            Err(_) => {
                if !session.done() {
                    park(shared, session);
                }
                return;
            }
            Ok(Some(raw)) => raw,
        };
        let frame = match raw.decode() {
            Ok(f) => f,
            Err(_) => {
                // Framed correctly but undecodable: treat like the
                // malformed-stream read error above.
                if !session.done() {
                    park(shared, session);
                }
                return;
            }
        };
        match frame {
            Frame::Interval {
                seq,
                update,
                trace_id,
            } => {
                core.counters().accepted.fetch_add(1, Ordering::Relaxed);
                let port = update.port;
                // The client reader's cap is normally below the backend
                // link's raised cap; guard the inverted-config case
                // rather than feeding the backend a frame its reader
                // must reject.
                if raw.bytes().len() > HEADER_LEN + shared.cfg.backend_frame_len {
                    core.malformed();
                    continue;
                }
                let bytes = raw.into_bytes();
                // Duplicate retransmit of an answered seq: replay from
                // the log, never re-forward (no window is fed twice).
                if let Some(b) = core.duplicate(&session.lineage, seq) {
                    if session.send_client(&b) {
                        core.reply_sent();
                    }
                    continue;
                }
                let mut st = session.route();
                if st.pending.contains_key(&seq) {
                    // Already in flight (client retransmit racing the
                    // backend's reply): drop, the reply will arrive.
                    continue;
                }
                st.pending.insert(
                    seq,
                    PendingEntry {
                        port,
                        bytes: bytes.clone(),
                        sent_at: shared.cfg.clock.now(),
                        trace_id,
                    },
                );
                CL_FORWARDED.inc();
                if let Some(w) = st.writer.as_mut() {
                    if write_bytes(w, &bytes).is_err() {
                        // Link is dead: leave the interval in pending —
                        // the link reader notices and migrates, and the
                        // migration re-sends it.
                        w.shutdown_both();
                    }
                }
            }
            Frame::Bye => {
                let mut st = session.route();
                st.bye = true;
                if let Ok(bye) =
                    encode_frame_with(&Frame::Bye, st.link, shared.cfg.backend_frame_len)
                {
                    if let Some(w) = st.writer.as_mut() {
                        if write_bytes(w, &bye).is_err() {
                            w.shutdown_both();
                        }
                    }
                }
                // Keep reading: the ByeAck arrives via the link reader
                // and flips `done`.
            }
            other => {
                let reply = core
                    .probe(&other)
                    .unwrap_or_else(|| core.unexpected(&other));
                if let Some(b) = session.encode(&reply, shared.cfg.client_frame_len) {
                    session.send_client(&b);
                }
            }
        }
    }
}
