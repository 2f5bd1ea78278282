//! The client-facing session protocol, written once.
//!
//! [`SessionCore`] makes every decision about a session *lineage* — the
//! chain of connections one client holds under one resume token — and
//! does no I/O: it takes frames and lifecycle events and returns frames
//! or encoded bytes for its host to send. The single-node server
//! ([`crate::server`]) and the cluster router (`fmml-cluster`) both
//! host it, so handshake, parking, resume and replay behave alike.
//!
//! The core owns: `Stats`/`MetricsDump` probes; `Hello` validation
//! against the geometry caps below and the `draining` refusal; codec
//! negotiation and every `Welcome` (always JSON on the wire); token
//! minting; the lineage table of attached and parked lineages, with the
//! parked TTL on the injected [`Clock`], capacity eviction and the resume
//! claim's tenant + geometry identity match; each [`Lineage`]'s
//! exactly-once state (record-before-send commit, answered-seq
//! watermark, duplicate answers, `set_acked`, replay past `last_acked`
//! including [`ProtocolBug::ReplayOffByOne`]); and the lifecycle
//! counters behind `StatsReply`.
//!
//! The hosts keep where replies come from: the server's sliding
//! windows, worker queue and in-flight drain; the router's ring
//! placement, migration warm-up and link epochs. [`await_opening`] is
//! the connection prologue and handshake loop both run over their
//! [`Conn`].

use crate::protocol::{encode_frame_with, write_bytes, Frame, FrameReader, WireCodec};
use crate::replay_log::ReplayLog;
use crate::transport::Conn;
use fmml_obs::hash::splitmix64;
use fmml_obs::{Clock, Counter, Gauge};
use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Condvar, Mutex, MutexGuard, PoisonError};
use std::time::{Duration, Instant};

/// Caps on the `Hello` geometry, checked before any per-session
/// allocation: a hostile `Hello` (e.g. `window_intervals = 10^15`) is
/// answered `bad_handshake` instead of driving `queues × window ×
/// interval_len` allocations to abort, and a router refuses it before
/// placing anything.
pub const MAX_PORTS_PER_SESSION: usize = 64;
pub const MAX_QUEUES: usize = 64;
pub const MAX_INTERVAL_LEN: usize = 512;
pub const MAX_WINDOW_INTERVALS: usize = 64;

/// How long a host waits for a `Hello` (injected clock).
pub const HANDSHAKE_TIMEOUT: Duration = Duration::from_secs(5);

/// Default [`CoreConfig::claim_wait`].
pub const CLAIM_WAIT: Duration = Duration::from_millis(500);

/// A deliberately wrong protocol behaviour, used by `fmml-simtest` to
/// prove its conformance checker fires. `None` in production.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ProtocolBug {
    /// On resume, replay starts one seq too late (`last_acked + 1`
    /// exclusive instead of `last_acked` exclusive), silently skipping
    /// the first un-acked reply.
    ReplayOffByOne,
}

/// Who a lineage belongs to: a resume claim must present the same
/// tenant and geometry, or it gets a fresh session.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Identity {
    pub tenant: String,
    pub ports: Vec<usize>,
    pub queues: usize,
    pub interval_len: usize,
    pub window_intervals: usize,
}

/// The process-global metrics a host reports lifecycle events under
/// (`serve.*` for the server, `cluster.*` for the router).
pub struct LifecycleMetrics {
    pub sessions: Counter,
    pub active: Gauge,
    pub parked: Gauge,
    pub resumes: Counter,
    pub resume_misses: Counter,
    pub replayed: Counter,
    pub replies: Counter,
    pub malformed: Counter,
}

/// Per-instance counters behind `StatsReply` (the process-global metrics
/// aggregate across instances). The core bumps the lifecycle ones;
/// hosts bump the rest directly.
#[derive(Default)]
pub struct Counters {
    pub sessions: AtomicU64,
    pub active_sessions: AtomicU64,
    pub accepted: AtomicU64,
    pub rejected: AtomicU64,
    pub malformed: AtomicU64,
    pub replies: AtomicU64,
    pub batches: AtomicU64,
    pub deadline_misses: AtomicU64,
    pub violations: AtomicU64,
    pub slow_disconnects: AtomicU64,
    /// Resumption accounting (typed handle accessors, not on the wire).
    pub resumes: AtomicU64,
    pub replayed: AtomicU64,
}

impl Counters {
    pub fn stats_frame(&self) -> Frame {
        let get = |c: &AtomicU64| c.load(Ordering::Relaxed);
        Frame::StatsReply {
            sessions: get(&self.sessions),
            active_sessions: get(&self.active_sessions),
            accepted: get(&self.accepted),
            rejected: get(&self.rejected),
            malformed: get(&self.malformed),
            replies: get(&self.replies),
            batches: get(&self.batches),
            deadline_misses: get(&self.deadline_misses),
            violations: get(&self.violations),
            slow_disconnects: get(&self.slow_disconnects),
        }
    }
}

/// How a core names its lineages. Tokens route a reconnect to its
/// parked state; they do not authenticate it (the protocol is plaintext
/// and the tenant client-asserted), so they are deterministic.
#[derive(Debug, Clone, Copy)]
pub enum TokenStyle {
    /// `tok-` + splitmix64 of the session id (a single node).
    Node,
    /// `rtok-` + the next draw of a splitmix64 stream seeded here (a
    /// router: two routers configured alike mint, and place, alike).
    Router { seed: u64 },
}

/// Knobs of a [`SessionCore`], filled in from its host's config.
#[derive(Clone)]
pub struct CoreConfig {
    /// Preferred codec; picked when the client's `Hello` advertises it.
    pub wire: WireCodec,
    /// Per-lineage replay window; `0` disables resumption (no tokens).
    pub replay_window: usize,
    /// Parked lineages kept at most (oldest evicted first); `0` disables
    /// resumption.
    pub max_parked: usize,
    /// How long a parked lineage stays claimable (injected clock).
    pub parked_ttl: Duration,
    /// How long a resume claim waits for a still-attached lineage to
    /// park (the old connection may still be unwinding). Real time even
    /// under a virtual clock: poll patience, not protocol time.
    pub claim_wait: Duration,
    pub clock: Clock,
    pub injected_bug: Option<ProtocolBug>,
    pub tokens: TokenStyle,
    pub metrics: &'static LifecycleMetrics,
}

/// The exactly-once state of one lineage, shared by every host thread
/// that answers it (server workers, router link readers) and carried
/// across parks and resumes.
pub struct Lineage {
    token: Option<String>,
    codec: WireCodec,
    /// Highest seq with a committed reply (every received seq resolves
    /// exactly one way: Ack, Imputed, Busy or Reject).
    highest_seq: AtomicU64,
    replay: Mutex<ReplayLog>,
}

impl Lineage {
    /// The resume token (`None` when resumption is disabled).
    pub fn token(&self) -> Option<&str> {
        self.token.as_deref()
    }

    /// The codec negotiated at birth, fixed for the whole lineage: the
    /// replay log holds bytes encoded in it.
    pub fn codec(&self) -> WireCodec {
        self.codec
    }

    pub(crate) fn highest_seq(&self) -> u64 {
        self.highest_seq.load(Ordering::Acquire)
    }

    /// Commit the reply for `seq` *before* writing it, so a reply that
    /// may have reached the wire is always replayable.
    pub fn commit(&self, seq: u64, bytes: &[u8]) {
        self.highest_seq.fetch_max(seq, Ordering::AcqRel);
        self.log().record(seq, bytes);
    }

    /// The committed reply for `seq`, if retained. A seq above the
    /// watermark costs one atomic read; only seqs at or below it consult
    /// the log.
    pub fn logged(&self, seq: u64) -> Option<Vec<u8>> {
        if seq > self.highest_seq() {
            return None;
        }
        self.log().get(seq)
    }

    fn log(&self) -> MutexGuard<'_, ReplayLog> {
        self.replay.lock().unwrap_or_else(PoisonError::into_inner)
    }
}

/// What a `Hello` opened. `id` is the session id of the new connection
/// (one per accepted `Hello`).
pub enum Opening<P> {
    /// A new lineage. `expired` is a parked state the failed resume
    /// claim found past its TTL; the host disposes of it.
    Fresh {
        id: u64,
        identity: Identity,
        lineage: Lineage,
        expired: Option<P>,
    },
    /// A parked lineage claimed back; `state` is what the host parked.
    Resume {
        id: u64,
        last_acked: Option<u64>,
        state: P,
    },
}

/// A pre-handshake frame the core answers without opening anything.
pub enum Answer {
    /// A probe reply: send it and keep reading.
    Probe(Box<Frame>),
    /// A refusal: send it and hang up.
    Refuse(Box<Frame>),
}

/// A resume's wire output: the `Welcome` (JSON), then the replies past
/// the client's `last_acked`, in seq order.
pub struct Replay {
    pub welcome: Vec<u8>,
    pub replies: Vec<Vec<u8>>,
}

/// A minted lineage: attached (`parked == None`) or parked since an
/// instant with the host's state.
struct Entry<P> {
    identity: Identity,
    parked: Option<(Instant, P)>,
}

type Table<P> = HashMap<String, Entry<P>>;

/// The sans-IO session core; `P` is what the host parks.
pub struct SessionCore<P> {
    cfg: CoreConfig,
    counters: Counters,
    draining: AtomicBool,
    token_stream: Mutex<u64>,
    lineages: Mutex<Table<P>>,
    /// Signalled whenever a lineage parks: wakes claims racing the old
    /// connection's unwind.
    parked_cv: Condvar,
}

fn refuse(code: &str, message: String) -> Answer {
    let code = code.into();
    Answer::Refuse(Box::new(Frame::Error { code, message }))
}

impl<P> SessionCore<P> {
    pub fn new(cfg: CoreConfig) -> SessionCore<P> {
        let seed = match cfg.tokens {
            TokenStyle::Router { seed } => seed,
            TokenStyle::Node => 0,
        };
        SessionCore {
            cfg,
            counters: Counters::default(),
            draining: AtomicBool::new(false),
            token_stream: Mutex::new(seed),
            lineages: Mutex::new(HashMap::new()),
            parked_cv: Condvar::new(),
        }
    }

    pub fn counters(&self) -> &Counters {
        &self.counters
    }

    /// Resumption on? (Replay window and parking both enabled.)
    fn resumable(&self) -> bool {
        self.cfg.replay_window > 0 && self.cfg.max_parked > 0
    }

    /// Refuse every new `Hello`, fresh and resume, with `Error{draining}`
    /// from now on (probes still work: drain must not blind a health
    /// checker). Returns whether this call started the drain.
    pub(crate) fn begin_drain(&self) -> bool {
        !self.draining.swap(true, Ordering::AcqRel)
    }

    pub(crate) fn is_draining(&self) -> bool {
        self.draining.load(Ordering::Acquire)
    }

    /// A reply frame was shipped to a client.
    pub fn reply_sent(&self) {
        self.counters.replies.fetch_add(1, Ordering::Relaxed);
        self.cfg.metrics.replies.inc();
    }

    /// A frame or interval was malformed.
    pub fn malformed(&self) {
        self.counters.malformed.fetch_add(1, Ordering::Relaxed);
        self.cfg.metrics.malformed.inc();
    }

    /// The answer to a monitoring probe, valid before and after the
    /// handshake; `None` if `frame` is not a probe.
    pub fn probe(&self, frame: &Frame) -> Option<Frame> {
        match frame {
            Frame::Stats => Some(self.counters.stats_frame()),
            Frame::MetricsDump => Some(Frame::MetricsReply {
                json: fmml_obs::dump_json(),
            }),
            _ => None,
        }
    }

    /// The answer to a frame that has no business mid-session.
    pub fn unexpected(&self, frame: &Frame) -> Frame {
        self.malformed();
        Frame::Error {
            code: "unexpected".into(),
            message: format!("unexpected {} frame", frame.tag()),
        }
    }

    /// Handle a pre-handshake frame: answer a probe, refuse, or open a
    /// lineage (fresh, or by claiming a parked one).
    pub fn open(&self, frame: Frame) -> Result<Opening<P>, Answer> {
        if let Some(reply) = self.probe(&frame) {
            return Err(Answer::Probe(Box::new(reply)));
        }
        let Frame::Hello {
            tenant,
            ports,
            queues,
            interval_len,
            window_intervals,
            resume_token,
            last_acked,
            codecs,
        } = frame
        else {
            let msg = format!("expected Hello, got {}", frame.tag());
            return Err(refuse("bad_handshake", msg));
        };
        if self.is_draining() {
            let msg = "node is draining; place this session elsewhere".into();
            return Err(refuse("draining", msg));
        }
        let valid = (1..=MAX_PORTS_PER_SESSION).contains(&ports.len())
            && (1..=MAX_QUEUES).contains(&queues)
            && (2..=MAX_INTERVAL_LEN).contains(&interval_len)
            && (1..=MAX_WINDOW_INTERVALS).contains(&window_intervals);
        if !valid {
            self.malformed();
            let msg = format!(
                "invalid geometry: ports={} queues={queues} interval_len={interval_len} \
                 window_intervals={window_intervals}",
                ports.len()
            );
            return Err(refuse("bad_handshake", msg));
        }
        let id = self.counters.sessions.fetch_add(1, Ordering::Relaxed) + 1;
        self.cfg.metrics.sessions.inc();
        let identity = Identity {
            tenant,
            ports,
            queues,
            interval_len,
            window_intervals,
        };

        let mut expired = None;
        if let Some(tok) = resume_token.filter(|_| self.resumable()) {
            match self.claim(&tok, &identity) {
                Ok(state) => {
                    self.attached();
                    return Ok(Opening::Resume {
                        id,
                        last_acked,
                        state,
                    });
                }
                Err(stale) => expired = stale,
            }
            self.cfg.metrics.resume_misses.inc();
        }

        let token = self.resumable().then(|| self.mint(id));
        if let Some(t) = &token {
            let entry = Entry {
                identity: identity.clone(),
                parked: None,
            };
            self.table().insert(t.clone(), entry);
        }
        self.attached();
        let lineage = Lineage {
            token,
            codec: WireCodec::negotiate(self.cfg.wire, codecs.as_deref()),
            highest_seq: AtomicU64::new(0),
            replay: Mutex::new(ReplayLog::new(self.cfg.replay_window)),
        };
        Ok(Opening::Fresh {
            id,
            identity,
            lineage,
            expired,
        })
    }

    /// The JSON `Welcome` of a fresh lineage; everything after it speaks
    /// `lineage.codec()`. A resumable node always states the verdict
    /// (`resumed: false`), so a failed resume is answered honestly: the
    /// client's pending intervals went to a lineage that is gone.
    pub fn welcome(&self, id: u64, lineage: &Lineage, deadline_ms: u64) -> Vec<u8> {
        self.encode_welcome(id, lineage, deadline_ms, false)
    }

    /// A claimed lineage's `Welcome` and replay. Call it once every reply
    /// still in the host's pipeline is committed, so the watermark
    /// (`resume_seq`) covers every seq that reached the host; the
    /// client re-sends everything above it.
    pub fn resume(
        &self,
        id: u64,
        lineage: &Lineage,
        last_acked: Option<u64>,
        deadline_ms: u64,
    ) -> Replay {
        let welcome = self.encode_welcome(id, lineage, deadline_ms, true);
        let acked = last_acked.unwrap_or(0);
        let from = match self.cfg.injected_bug {
            Some(ProtocolBug::ReplayOffByOne) => acked + 1,
            None => acked,
        };
        let mut log = lineage.log();
        // The client's ack is the eviction watermark: everything at or
        // below it is confirmed processed and safe to drop first.
        log.set_acked(acked);
        let replies = log.since(from).into_iter().map(|(_, b)| b).collect();
        Replay { welcome, replies }
    }

    /// A resume completed: its `Welcome` and `sent` replayed replies went
    /// out (replies shipped to a client: the originals never cleared the
    /// dead connection).
    pub fn resumed(&self, sent: u64) {
        let (c, m) = (&self.counters, self.cfg.metrics);
        c.resumes.fetch_add(1, Ordering::Relaxed);
        m.resumes.inc();
        c.replayed.fetch_add(sent, Ordering::Relaxed);
        m.replayed.add(sent);
        c.replies.fetch_add(sent, Ordering::Relaxed);
        m.replies.add(sent);
    }

    /// The logged answer to a duplicate delivery of `seq`. `None` means
    /// the host has not answered `seq` yet (a new or reordered frame):
    /// process it normally — no window is ever fed twice. After sending
    /// the bytes, call [`reply_sent`](SessionCore::reply_sent).
    pub fn duplicate(&self, lineage: &Lineage, seq: u64) -> Option<Vec<u8>> {
        let bytes = lineage.logged(seq)?;
        self.counters.replayed.fetch_add(1, Ordering::Relaxed);
        self.cfg.metrics.replayed.inc();
        Some(bytes)
    }

    /// An attached lineage's connection died: park `state` under its
    /// token. Returns the parked states evicted to make room (TTL-expired
    /// ones, then the oldest) for the host to dispose of. `state` itself
    /// comes back when there is nothing to resume into: no token
    /// (resumption off), or the lineage was closed meanwhile.
    pub fn park(&self, lineage: &Lineage, state: P) -> Vec<P> {
        let Some(token) = lineage.token() else {
            self.detached();
            return vec![state];
        };
        let now = self.cfg.clock.now();
        let mut table = self.table();
        if table.get(token).is_none_or(|e| e.parked.is_some()) {
            return vec![state];
        }
        self.detached();
        let mut evicted = self.prune(&mut table, now);
        while parked_len(&table) >= self.cfg.max_parked {
            let oldest = table
                .iter()
                .filter_map(|(k, e)| e.parked.as_ref().map(|(at, _)| (*at, k.clone())))
                .min();
            let Some((_, k)) = oldest else { break };
            evicted.extend(take_parked(&mut table, &k));
        }
        let entry = table.get_mut(token).expect("attached, so never evicted");
        entry.parked = Some((now, state));
        self.cfg.metrics.parked.set(parked_len(&table) as i64);
        drop(table);
        self.parked_cv.notify_all();
        evicted
    }

    /// The lineage ended for good (`Bye`, shutdown, a failed `Welcome`):
    /// forget it, parked state included.
    pub fn close(&self, lineage: &Lineage) {
        let Some(token) = lineage.token() else {
            return self.detached();
        };
        let mut table = self.table();
        match table.remove(token) {
            Some(Entry { parked: None, .. }) => self.detached(),
            Some(_) => self.cfg.metrics.parked.set(parked_len(&table) as i64),
            None => {}
        }
    }

    /// Drop every parked lineage past its TTL, returning their states
    /// (for hosts whose parked state holds resources, like a router's
    /// backend link).
    pub fn expire(&self) -> Vec<P> {
        let mut table = self.table();
        let expired = self.prune(&mut table, self.cfg.clock.now());
        self.cfg.metrics.parked.set(parked_len(&table) as i64);
        expired
    }

    pub(crate) fn parked_count(&self) -> usize {
        parked_len(&self.table())
    }

    pub(crate) fn parked_contains(&self, token: &str) -> bool {
        self.table().get(token).is_some_and(|e| e.parked.is_some())
    }

    fn table(&self) -> MutexGuard<'_, Table<P>> {
        self.lineages.lock().unwrap_or_else(PoisonError::into_inner)
    }

    fn attached(&self) {
        self.counters
            .active_sessions
            .fetch_add(1, Ordering::Relaxed);
        self.cfg.metrics.active.add(1);
    }

    fn detached(&self) {
        self.counters
            .active_sessions
            .fetch_sub(1, Ordering::Relaxed);
        self.cfg.metrics.active.add(-1);
    }

    fn mint(&self, id: u64) -> String {
        match self.cfg.tokens {
            TokenStyle::Node => format!("tok-{:016x}", splitmix64(&mut { id })),
            TokenStyle::Router { .. } => {
                let mut s = self
                    .token_stream
                    .lock()
                    .unwrap_or_else(PoisonError::into_inner);
                format!("rtok-{:016x}", splitmix64(&mut s))
            }
        }
    }

    fn expired(&self, parked_at: Instant, now: Instant) -> bool {
        now.saturating_duration_since(parked_at) > self.cfg.parked_ttl
    }

    /// Remove every parked entry past its TTL.
    fn prune(&self, table: &mut Table<P>, now: Instant) -> Vec<P> {
        let stale: Vec<String> = table
            .iter()
            .filter(|(_, e)| matches!(e.parked, Some((at, _)) if self.expired(at, now)))
            .map(|(k, _)| k.clone())
            .collect();
        stale.iter().filter_map(|k| take_parked(table, k)).collect()
    }

    /// Claim parked lineage `tok` for a reconnect presenting `identity`,
    /// waiting (real time, at most `claim_wait`) while it is still
    /// attached. A mismatched identity leaves the parked state alone.
    /// `Err(Some(state))`: the parked state outlived its TTL and left the
    /// table — the reconnect gets a fresh lineage, never a resurrection.
    fn claim(&self, tok: &str, identity: &Identity) -> Result<P, Option<P>> {
        let deadline = Instant::now() + self.cfg.claim_wait;
        let mut table = self.table();
        loop {
            let Some(entry) = table.get_mut(tok) else {
                return Err(None);
            };
            if let Some((at, _)) = entry.parked {
                if self.expired(at, self.cfg.clock.now()) {
                    let stale = take_parked(&mut table, tok);
                    self.cfg.metrics.parked.set(parked_len(&table) as i64);
                    return Err(stale);
                }
                if entry.identity != *identity {
                    return Err(None);
                }
                let (_, state) = entry.parked.take().expect("parked above");
                self.cfg.metrics.parked.set(parked_len(&table) as i64);
                return Ok(state);
            }
            let left = deadline.saturating_duration_since(Instant::now());
            if left.is_zero() {
                return Err(None);
            }
            let wait = left.min(Duration::from_millis(10));
            table = self
                .parked_cv
                .wait_timeout(table, wait)
                .unwrap_or_else(PoisonError::into_inner)
                .0;
        }
    }

    fn encode_welcome(
        &self,
        id: u64,
        lineage: &Lineage,
        deadline_ms: u64,
        resumed: bool,
    ) -> Vec<u8> {
        let welcome = Frame::Welcome {
            session: id,
            deadline_ms,
            resume_token: lineage.token.clone(),
            resumed: (resumed || self.resumable()).then_some(resumed),
            resume_seq: resumed.then(|| lineage.highest_seq()),
            // A resumed lineage restates its birth codec: the replay
            // bytes that follow are encoded in it.
            codec: Some(lineage.codec.label().into()),
        };
        encode_frame_with(&welcome, WireCodec::Json, crate::MAX_FRAME_LEN)
            .expect("a Welcome always fits the default frame cap")
    }
}

fn parked_len<P>(table: &Table<P>) -> usize {
    table.values().filter(|e| e.parked.is_some()).count()
}

fn take_parked<P>(table: &mut Table<P>, tok: &str) -> Option<P> {
    table.remove(tok)?.parked.map(|(_, state)| state)
}

/// The connection prologue both hosts run: socket timeouts, the
/// read/write split, then the handshake — probes are answered (JSON,
/// capped at `max_len`) until a `Hello` opens a lineage. Returns the
/// opening with the connection (the write half) and its frame reader;
/// `None` after sending a refusal, on a dead connection, on `abort()`, or
/// after [`HANDSHAKE_TIMEOUT`] without a `Hello`.
pub fn await_opening<C: Conn, P>(
    core: &SessionCore<P>,
    mut conn: C,
    read_timeout: Duration,
    write_timeout: Duration,
    max_len: usize,
    abort: impl Fn() -> bool,
) -> Option<(Opening<P>, C, FrameReader<C>)> {
    let _ = conn.set_read_timeout(Some(read_timeout));
    let _ = conn.set_write_timeout(Some(write_timeout));
    let _ = conn.set_nodelay(true);
    let mut reader = FrameReader::with_max_len(conn.try_clone().ok()?, max_len);
    let deadline = core.cfg.clock.now() + HANDSHAKE_TIMEOUT;
    loop {
        if abort() || core.cfg.clock.now() > deadline {
            return None;
        }
        let frame = match reader.poll_frame() {
            Ok(Some(f)) => f,
            Ok(None) => continue,
            Err(_) => return None,
        };
        let (reply, keep_going) = match core.open(frame) {
            Ok(opening) => return Some((opening, conn, reader)),
            Err(Answer::Probe(f)) => (f, true),
            Err(Answer::Refuse(f)) => (f, false),
        };
        let sent = encode_frame_with(&reply, WireCodec::Json, max_len)
            .is_ok_and(|b| write_bytes(&mut conn, &b).is_ok());
        if !(sent && keep_going) {
            return None;
        }
    }
}
