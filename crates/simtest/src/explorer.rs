//! Seeded schedule explorer: drives client-op interleavings against a
//! real server over the simulated transport and checks every reply with
//! [`ClientModel`].
//!
//! ## Determinism model
//!
//! The driver is single-threaded; the server is fully concurrent. The
//! bridge between them is a set of invariants that make the *observable
//! outcome* (violations + reply fingerprint) a pure function of the
//! seed, even though thread interleavings differ run to run:
//!
//! * **Duplex deaths happen at schedule points.** Every connection
//!   death is a driver `Kill` op. Profile-injected disconnects are
//!   excluded entirely (see [`derive_profile`]): a disconnect fate is
//!   keyed on racy inputs (dial count, a resume `Hello`'s `last_acked`),
//!   so whether it fires — and with it which clients are alive at later
//!   schedule points, and which seqs ever get allocated — would differ
//!   run to run. Reply-loss recovery is still fully exercised: `Kill`
//!   ops race in-flight replies, and whatever was lost converges back
//!   via the resume replay.
//! * **Only delay faults in explorer profiles.** Drop, duplication and
//!   disconnect exist in [`fmml_serve::sim`] (unit-tested there) but
//!   are excluded here by design: the protocol rides a TCP-like stream
//!   that never drops or duplicates *within* a connection, so a dropped
//!   frame on a live connection is unobservable to a correct client (it
//!   would wait forever), a duplicated `Interval` races the reader's
//!   dedup check against worker commit, and disconnect fates flip on
//!   racy content (above). Loss is modelled the way TCP loses data: the
//!   undelivered suffix of a killed connection. A delay fate is equally
//!   race-keyed but only moves *when* a frame arrives, never what is
//!   observed.
//! * **Racy sets converge.** Which in-flight replies beat a kill is a
//!   real race, but every outcome funnels into the same end state: a
//!   reply lost with the connection is replayed on resume (bitwise,
//!   from the replay log), a reply that survived is deduplicated by the
//!   checker's Frame-equality rule. The final faultless drain settles
//!   every client, so the resolved map — and the fingerprint folded
//!   over it — is seed-deterministic.
//!
//! The fingerprint excludes timing fields (`latency_us`, `trace_id`)
//! and folds everything else: series bytes, degradation levels, warm-up
//! counts, reject reasons, plus the violation count.

use crate::checker::{ClientModel, ResumeExpect};
use fmml_core::streaming::IntervalUpdate;
use fmml_core::transformer_imputer::{Scales, TransformerImputer};
use fmml_fault::ProcessFaultPlan;
use fmml_fm::cem::CemEngine;
use fmml_netsim::traffic::TrafficConfig;
use fmml_netsim::{SimConfig, Simulation};
use fmml_obs::hash::{fnv_fold, splitmix64, FNV_OFFSET};
use fmml_obs::{Clock, VirtualClock};
use fmml_serve::protocol::{encode_frame_with, write_frame, FrameReader, WireCodec, MAX_FRAME_LEN};
use fmml_serve::{
    spawn_with, Conn, Connector, FaultCounts, FaultProfile, Frame, ProtocolBug, ServerConfig,
    ServerHandle, SimConn, SimNet,
};
use fmml_telemetry::windows_from_trace;
use std::collections::BTreeMap;
use std::io::Write as _;
use std::sync::{Arc, OnceLock};
use std::time::{Duration, Instant};

const INTERVAL_LEN: usize = 10;
const WINDOW_INTERVALS: usize = 3;
/// Parked-session TTL in the explorer's server config: far beyond any
/// schedule's organic time advance, so sessions expire *only* when the
/// `Expire` op advances the clock past it on purpose.
const PARKED_TTL: Duration = Duration::from_secs(3600);
/// Consecutive progress-free pump iterations (each advancing virtual
/// time 1 ms) before a wait is declared stalled.
const STALL_LIMIT: usize = 600;
/// Reconnect attempts before the harness gives up on a client (each
/// attempt dials a fresh connection with fresh fault fates).
const RESUME_ATTEMPTS: usize = 6;

/// Knobs for a simulation run (CLI: `fmml simtest`).
#[derive(Debug, Clone)]
pub struct SimtestConfig {
    /// How many consecutive seeds to explore.
    pub seeds: u64,
    /// First seed.
    pub start_seed: u64,
    /// Concurrent client sessions per seed.
    pub clients: usize,
    /// Schedule length (client ops per seed).
    pub ops: usize,
    /// Activate a deliberate server bug; the harness must catch it.
    pub inject_bug: Option<ProtocolBug>,
    /// Wire codec the driver's clients ask for. With [`WireCodec::Json`]
    /// the run is byte-identical to a pre-v2 client (no advertisement);
    /// with [`WireCodec::Bin1`] clients advertise and the server picks.
    /// Delay-only fault profiles never change observable reply content,
    /// so a seed's fingerprint is codec-independent — which the CI wire
    /// sweep asserts by running both.
    pub wire: WireCodec,
}

impl Default for SimtestConfig {
    fn default() -> SimtestConfig {
        SimtestConfig {
            seeds: 100,
            start_seed: 1,
            clients: 3,
            ops: 16,
            inject_bug: None,
            wire: WireCodec::Json,
        }
    }
}

/// Outcome of one explored seed.
#[derive(Debug, Clone)]
pub struct SeedOutcome {
    pub seed: u64,
    /// FNV fold over every client's resolved replies (semantic fields
    /// only) plus the violation count. Identical across runs of the
    /// same seed.
    pub fingerprint: u64,
    /// Protocol violations found by the reference model (empty on a
    /// correct server).
    pub violations: Vec<String>,
    /// Ground-truth injected-fault totals, for reports.
    pub faults: FaultCounts,
}

/// Explore `cfg.seeds` consecutive seeds, sequentially.
pub fn run(cfg: &SimtestConfig) -> Vec<SeedOutcome> {
    (cfg.start_seed..cfg.start_seed + cfg.seeds)
        .map(|seed| run_seed(seed, cfg))
        .collect()
}

/// Shared fixture: one deterministic imputer and a pool of real
/// telemetry interval updates (same geometry as the loopback suite).
/// Built once — `windows_from_trace` over a seeded simulation is pure,
/// and the imputer is stateless at inference time.
pub(crate) struct Fixture {
    pub(crate) model: Arc<TransformerImputer>,
    pub(crate) updates: Vec<IntervalUpdate>,
    pub(crate) port: usize,
    pub(crate) queues: usize,
}

pub(crate) fn fixture() -> &'static Fixture {
    static FX: OnceLock<Fixture> = OnceLock::new();
    FX.get_or_init(|| {
        let cfg = SimConfig::small();
        let model = Arc::new(TransformerImputer::new(
            3,
            Scales {
                qlen: cfg.buffer_packets as f32,
                count: 830.0,
            },
        ));
        let gt = Simulation::new(
            cfg.clone(),
            TrafficConfig::websearch_incast(cfg.num_ports, 0.6),
            19,
        )
        .run_ms(360);
        let ws: Vec<_> = windows_from_trace(
            &gt,
            INTERVAL_LEN * WINDOW_INTERVALS,
            INTERVAL_LEN,
            INTERVAL_LEN * WINDOW_INTERVALS,
        )
        .into_iter()
        .filter(|w| w.has_activity())
        .collect();
        let port = ws[0].port;
        let queues = ws[0].num_queues();
        let updates: Vec<IntervalUpdate> = ws
            .iter()
            .filter(|w| w.port == port)
            .flat_map(|w| (0..w.intervals()).map(move |k| IntervalUpdate::from_window(w, k)))
            .collect();
        assert!(!updates.is_empty(), "fixture produced no interval updates");
        Fixture {
            model,
            updates,
            port,
            queues,
        }
    })
}

/// Fields of the last `Welcome` a client saw, in wire order:
/// `(resumed, resume_seq, resume_token, codec)`.
type WelcomeInfo = (Option<bool>, Option<u64>, Option<String>, Option<String>);

/// Driver-side state of one simulated client.
pub(crate) struct Client {
    model: ClientModel,
    tx: Option<SimConn>,
    rx: Option<FrameReader<SimConn>>,
    /// The connection is known dead (read error / EOF / failed write).
    dead: bool,
    token: Option<String>,
    /// The token's parked state was aged past the TTL by an `Expire`
    /// op: the next handshake must come back fresh.
    expired_token: bool,
    /// Exact wire bytes of every sent `Interval`, keyed by seq — resent
    /// verbatim on resume for seqs above the server's watermark.
    sent_wire: BTreeMap<u64, Vec<u8>>,
    supply_idx: usize,
    /// Codec the server's `Welcome` picked for this lineage; every
    /// frame the client sends after the handshake is encoded with it.
    codec: WireCodec,
    welcome: Option<WelcomeInfo>,
    byeack: Option<(u64, u64)>,
    bye_sent: bool,
}

impl Client {
    pub(crate) fn new(id: usize) -> Client {
        Client {
            model: ClientModel::new(id, WINDOW_INTERVALS),
            tx: None,
            rx: None,
            dead: false,
            token: None,
            expired_token: false,
            sent_wire: BTreeMap::new(),
            supply_idx: 0,
            codec: WireCodec::Json,
            welcome: None,
            byeack: None,
            bye_sent: false,
        }
    }

    pub(crate) fn is_alive(&self) -> bool {
        self.tx.is_some() && !self.dead
    }

    /// Token that should still resolve to a parked session server-side.
    fn has_live_token(&self) -> bool {
        self.token.is_some() && !self.expired_token
    }

    fn dispatch(&mut self, f: Frame) {
        match f {
            Frame::Welcome {
                resumed,
                resume_seq,
                resume_token,
                codec,
                ..
            } => self.welcome = Some((resumed, resume_seq, resume_token, codec)),
            Frame::Ack { .. }
            | Frame::Imputed { .. }
            | Frame::Busy { .. }
            | Frame::Reject { .. } => {
                self.model.on_reply(&f);
                // Bound both checker and re-send memory by the pending
                // span: nothing at or below the acked watermark is ever
                // re-sent or re-compared.
                self.model.evict_acked();
                let floor = self.model.last_acked();
                self.sent_wire.retain(|&s, _| s > floor);
            }
            Frame::ByeAck {
                answered,
                remaining,
            } => self.byeack = Some((answered, remaining)),
            Frame::Error { code, message } => self
                .model
                .violation(format!("server Error [{code}]: {message}")),
            Frame::StatsReply { .. } | Frame::MetricsReply { .. } => {}
            other => self.model.violation(format!(
                "client received server-bound frame {}",
                other.tag()
            )),
        }
    }

    fn drop_conn(&mut self) {
        if let Some(tx) = &self.tx {
            tx.shutdown_both();
        }
        self.tx = None;
        self.rx = None;
        self.dead = true;
    }
}

pub(crate) struct World {
    pub(crate) net: SimNet,
    /// `None` in the (real-clock) scripted bug scenario.
    pub(crate) vc: Option<Arc<VirtualClock>>,
    pub(crate) clients: Vec<Client>,
    pub(crate) violations: Vec<String>,
    /// Real time slept per idle pump iteration. Zero for the
    /// single-node explorer (everything it waits on runs on virtual
    /// time or its own threads); nonzero for the cluster explorer,
    /// whose router heals placements on *real*-time retry/probe
    /// budgets — idle iterations must let real time pass or a healthy
    /// migration gets declared a stall.
    pub(crate) real_idle: Duration,
    /// Consecutive progress-free pump iterations before a stall.
    pub(crate) stall_limit: usize,
    /// Codec the drivers advertise in their `Hello`s.
    pub(crate) wire: WireCodec,
}

impl World {
    pub(crate) fn new(
        net: SimNet,
        vc: Option<Arc<VirtualClock>>,
        clients: usize,
        wire: WireCodec,
    ) -> World {
        World {
            net,
            vc,
            clients: (0..clients).map(Client::new).collect(),
            violations: Vec::new(),
            real_idle: Duration::ZERO,
            stall_limit: STALL_LIMIT,
            wire,
        }
    }

    /// Drain every readable frame from every live client. Returns
    /// whether anything arrived. Also the aliveness probe: a killed
    /// duplex surfaces as EOF here, so by the next schedule point the
    /// driver's view of which connections are alive is deterministic.
    pub(crate) fn pump_once(&mut self) -> bool {
        let mut progress = false;
        for c in &mut self.clients {
            if !c.is_alive() {
                continue;
            }
            while let Some(rx) = c.rx.as_mut() {
                let polled = rx.poll_frame();
                match polled {
                    Ok(Some(f)) => {
                        progress = true;
                        c.dispatch(f);
                    }
                    Ok(None) => break,
                    Err(_) => {
                        c.dead = true;
                        break;
                    }
                }
            }
        }
        progress
    }

    /// Pump until `pred` holds, advancing virtual time 1 ms per idle
    /// iteration (releasing delayed frames, firing batch waits and
    /// restart backoffs). `false` = stalled: `STALL_LIMIT` consecutive
    /// iterations with nothing readable and the predicate still false.
    pub(crate) fn pump_until<F: Fn(&World) -> bool>(&mut self, pred: F) -> bool {
        self.pump_until_patient(pred, Duration::ZERO)
    }

    /// Like [`World::pump_until`], but a stall is only declared once
    /// `real_min` wall time has also elapsed. For waits whose other
    /// side runs on a real-time budget: a resume handshake is answered
    /// only after the server's `resume_claim_wait` poll gives up, so
    /// the client must outwait that budget or a slow park looks like a
    /// dead connection.
    fn pump_until_patient<F: Fn(&World) -> bool>(&mut self, pred: F, real_min: Duration) -> bool {
        let t0 = Instant::now();
        let mut idle = 0usize;
        loop {
            if pred(self) {
                return true;
            }
            if self.pump_once() {
                idle = 0;
                continue;
            }
            idle += 1;
            if idle > self.stall_limit && t0.elapsed() >= real_min {
                return false;
            }
            match &self.vc {
                Some(vc) => vc.advance(Duration::from_millis(1)),
                None => std::thread::sleep(Duration::from_micros(500)),
            }
            if !self.real_idle.is_zero() {
                std::thread::sleep(self.real_idle);
            }
        }
    }

    /// Pump until every live client has no pending obligations (a dead
    /// client's obligations wait for its resume).
    pub(crate) fn settle(&mut self) -> bool {
        self.pump_until(|w| {
            w.clients
                .iter()
                .all(|c| !c.is_alive() || c.model.pending_is_empty())
        })
    }

    /// (Re)connect client `i`, with retries — each attempt is a fresh
    /// connection with fresh fault fates, so a Hello eaten by a
    /// mid-write disconnect just costs an attempt.
    pub(crate) fn handshake(&mut self, i: usize) -> bool {
        for _ in 0..RESUME_ATTEMPTS {
            if self.try_handshake(i) {
                return true;
            }
        }
        self.violations.push(format!(
            "client {i}: handshake failed after {RESUME_ATTEMPTS} attempts"
        ));
        false
    }

    fn try_handshake(&mut self, i: usize) -> bool {
        let fx = fixture();
        let conn = match self.net.connector().connect() {
            Ok(c) => c,
            Err(_) => return false,
        };
        // Fast poll granularity: the driver advances time itself.
        let _ = conn.set_read_timeout(Some(Duration::from_micros(100)));
        let read_half = match conn.try_clone() {
            Ok(c) => c,
            Err(_) => return false,
        };
        let (token, expect) = {
            let c = &self.clients[i];
            match (&c.token, c.expired_token) {
                (Some(t), false) => (Some(t.clone()), ResumeExpect::Valid),
                (Some(t), true) => (Some(t.clone()), ResumeExpect::Expired),
                (None, _) => (None, ResumeExpect::Fresh),
            }
        };
        let last_acked = token.as_ref().map(|_| self.clients[i].model.last_acked());
        let hello = Frame::Hello {
            tenant: format!("c{i}"),
            ports: vec![fx.port],
            queues: fx.queues,
            interval_len: INTERVAL_LEN,
            window_intervals: WINDOW_INTERVALS,
            resume_token: token,
            last_acked,
            codecs: (self.wire == WireCodec::Bin1).then(WireCodec::advertise),
        };
        let mut tx = conn;
        if write_frame(&mut tx, &hello).is_err() {
            return false;
        }
        {
            let c = &mut self.clients[i];
            c.tx = Some(tx);
            c.rx = Some(FrameReader::new(read_half));
            c.dead = false;
            c.welcome = None;
        }
        self.pump_until_patient(
            |w| w.clients[i].welcome.is_some() || w.clients[i].dead,
            Duration::from_millis(400),
        );
        let welcome = self.clients[i].welcome.take();
        let Some((resumed, resume_seq, new_token, codec)) = welcome else {
            // Died or stalled mid-handshake. A resumed session was
            // re-parked server-side under the same token, so retrying
            // is safe.
            self.clients[i].drop_conn();
            return false;
        };
        let c = &mut self.clients[i];
        // Speak whatever the Welcome picked (a resumed lineage restates
        // its birth codec; a fresh one reflects the negotiation).
        c.codec = codec
            .as_deref()
            .and_then(WireCodec::parse)
            .unwrap_or_default();
        match c.model.on_welcome(expect, resumed, resume_seq) {
            Some(r) => {
                // Replay covers seqs <= r; everything pending above it
                // is the client's to re-send, verbatim, in seq order.
                let resend: Vec<Vec<u8>> = c
                    .model
                    .pending_seqs()
                    .into_iter()
                    .filter(|s| *s > r)
                    .filter_map(|s| c.sent_wire.get(&s).cloned())
                    .collect();
                for bytes in resend {
                    let Some(tx) = c.tx.as_mut() else { break };
                    if tx.write_all(&bytes).is_err() {
                        c.dead = true;
                        break;
                    }
                }
            }
            None => {
                // Fresh lineage (first connect, or expiry): nothing
                // from the old lineage can ever be re-sent.
                c.sent_wire.clear();
            }
        }
        match new_token {
            Some(t) => c.token = Some(t),
            None => c.model.violation("Welcome carried no resume token".into()),
        }
        c.expired_token = false;
        true
    }

    /// Send `n` well-formed intervals on client `i`'s live connection.
    pub(crate) fn burst(&mut self, i: usize, n: usize) {
        let fx = fixture();
        for _ in 0..n {
            let c = &mut self.clients[i];
            if !c.is_alive() {
                break;
            }
            let seq = c.model.alloc_good();
            let update = fx.updates[c.supply_idx % fx.updates.len()].clone();
            c.supply_idx += 1;
            let bytes = encode_frame_with(
                &Frame::Interval {
                    seq,
                    update,
                    trace_id: None,
                },
                c.codec,
                MAX_FRAME_LEN,
            )
            .expect("encode interval");
            c.sent_wire.insert(seq, bytes.clone());
            let Some(tx) = c.tx.as_mut() else { break };
            if tx.write_all(&bytes).is_err() {
                c.dead = true;
                break;
            }
        }
    }

    /// Send one interval for a port the session never announced: the
    /// protocol owes a typed `Reject` and must not advance the window.
    pub(crate) fn send_bad(&mut self, i: usize) {
        let fx = fixture();
        let c = &mut self.clients[i];
        if !c.is_alive() {
            return;
        }
        let seq = c.model.alloc_bad();
        let mut update = fx.updates[c.supply_idx % fx.updates.len()].clone();
        c.supply_idx += 1;
        update.port = fx.port + 1000;
        let bytes = encode_frame_with(
            &Frame::Interval {
                seq,
                update,
                trace_id: None,
            },
            c.codec,
            MAX_FRAME_LEN,
        )
        .expect("encode interval");
        c.sent_wire.insert(seq, bytes.clone());
        let Some(tx) = c.tx.as_mut() else { return };
        if tx.write_all(&bytes).is_err() {
            c.dead = true;
        }
    }

    /// Hard-kill client `i`'s connection (both directions, undelivered
    /// data lost) — the crash the resume protocol exists for.
    pub(crate) fn kill(&mut self, i: usize) {
        self.clients[i].drop_conn();
    }

    pub(crate) fn advance_small(&mut self, aux: u64) {
        if let Some(vc) = &self.vc {
            vc.advance(Duration::from_millis(1 + aux % 20));
        }
        self.pump_once();
    }

    /// Age every parked session past the TTL. Only *clean* sessions may
    /// be parked when the clock jumps: expiry deletes the replay log,
    /// so expiring a session that is still owed replies would turn a
    /// harness choice into a fake protocol violation. Hence: resume
    /// every dead client first, settle, then park one clean target.
    fn expire(&mut self, handle: &ServerHandle<SimConn>, target: usize) {
        for i in 0..self.clients.len() {
            if !self.clients[i].is_alive() && self.clients[i].has_live_token() {
                let _ = self.handshake(i);
            }
        }
        self.settle();
        let has_parked = self
            .clients
            .iter()
            .any(|c| !c.is_alive() && c.has_live_token());
        if !has_parked {
            if !(self.clients[target].is_alive() && self.clients[target].has_live_token()) {
                return;
            }
            self.kill(target);
        }
        let expected: Vec<String> = self
            .clients
            .iter()
            .filter(|c| !c.is_alive() && c.has_live_token())
            .filter_map(|c| c.token.clone())
            .collect();
        if expected.is_empty() {
            return;
        }
        // The park happens on the server's reader thread when it sees
        // the EOF — real time, so wait for it in real time (bounded).
        // Wait for the *specific* tokens: `parked_count` alone can be
        // satisfied by a stale entry from an earlier expiry, and jumping
        // the clock before the fresh park lands would leave that park
        // with a post-jump timestamp — an accidental resurrection.
        let deadline = Instant::now() + Duration::from_secs(2);
        while !expected.iter().all(|t| handle.parked_contains(t)) && Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(1));
        }
        let Some(vc) = &self.vc else { return };
        vc.advance(PARKED_TTL + Duration::from_secs(2));
        for c in &mut self.clients {
            if !c.is_alive() && c.token.is_some() {
                c.expired_token = true;
            }
        }
    }

    /// Faultless end-of-run drain: resume every dead client, settle,
    /// and force kill+resume cycles for anything stuck (a stuck seq
    /// that survives replay cycles is exactly what the replay-bug
    /// detector looks for). Then `Bye` every live session and run the
    /// completeness checks.
    pub(crate) fn final_drain(&mut self) {
        self.net.set_profile(FaultProfile::none());
        for i in 0..self.clients.len() {
            for _cycle in 0..3 {
                if !self.clients[i].is_alive() {
                    let c = &self.clients[i];
                    if c.token.is_none() || (c.expired_token && c.model.pending_is_empty()) {
                        break; // nothing owed; stays down
                    }
                    if !self.handshake(i) {
                        break; // violation already recorded
                    }
                }
                self.pump_until(|w| {
                    !w.clients[i].is_alive() || w.clients[i].model.pending_is_empty()
                });
                let c = &self.clients[i];
                if c.is_alive() && c.model.pending_is_empty() {
                    break;
                }
                if c.is_alive() {
                    // Stuck: force a re-park + resume so the replay
                    // path gets another chance (or proves broken).
                    self.kill(i);
                }
            }
        }
        for c in &mut self.clients {
            if !c.is_alive() {
                continue;
            }
            c.byeack = None;
            let bytes = encode_frame_with(&Frame::Bye, c.codec, MAX_FRAME_LEN).expect("encode bye");
            let Some(tx) = c.tx.as_mut() else { continue };
            if tx.write_all(&bytes).is_err() {
                c.dead = true;
                continue;
            }
            c.bye_sent = true;
        }
        self.pump_until(|w| {
            w.clients
                .iter()
                .all(|c| !c.bye_sent || c.byeack.is_some() || !c.is_alive())
        });
        for c in &mut self.clients {
            if !c.bye_sent {
                continue;
            }
            match c.byeack {
                Some((_answered, remaining)) => {
                    if remaining != 0 {
                        c.model.violation(format!(
                            "ByeAck reports remaining={remaining} after full settle"
                        ));
                    }
                }
                None => c
                    .model
                    .violation("Bye sent on the faultless drain but no ByeAck".into()),
            }
        }
        for c in &mut self.clients {
            c.model.final_check();
        }
        let trips = self.vc.as_ref().map_or(0, |vc| vc.valve_trips());
        if trips > 0 {
            self.violations.push(format!(
                "virtual-clock valve tripped {trips}x (a sleeper waited >5s real time)"
            ));
        }
    }

    pub(crate) fn into_outcome(self, seed: u64) -> SeedOutcome {
        let faults = self.net.fault_counts();
        let mut violations = self.violations;
        for c in &self.clients {
            for v in c.model.violations() {
                violations.push(format!("client {}: {v}", c.model.id()));
            }
        }
        let mut fp = FNV_OFFSET;
        for c in &self.clients {
            fp = c.model.fold_fingerprint(fp);
            if std::env::var_os("FMML_SIMTEST_DUMP").is_some() {
                c.model.dump(&mut std::io::stderr().lock());
            }
        }
        fp = fnv_fold(fp, violations.len() as u64);
        SeedOutcome {
            seed,
            fingerprint: fp,
            violations,
            faults,
        }
    }
}

/// Seed-derived transport fault profile: virtual-time delays only (see
/// the module docs for why the other fault kinds are excluded here).
///
/// Notably, even client→server *disconnect* fates are excluded: a fate
/// is keyed on (conn id, frame bytes, occurrence), and both the dial
/// count and a resume `Hello`'s `last_acked` field depend on how many
/// replies happened to land before the schedule point — real-time
/// races. A flipped disconnect fate changes which clients are alive at
/// later schedule points and therefore which seqs ever get allocated:
/// two runs of the same seed would both be protocol-clean yet resolve
/// different sets. Connection deaths must come only from the driver's
/// own `kill` ops, which happen at schedule points. Delay fates are
/// also race-keyed, but a delay only moves *when* a frame arrives, and
/// every observable reply converges regardless of timing.
pub(crate) fn derive_profile(rng: &mut u64) -> FaultProfile {
    let delay_choices = [0u32, 500, 1500, 3000];
    FaultProfile {
        drop_per_10k: 0,
        dup_per_10k: 0,
        reorder_per_10k: 0,
        delay_per_10k: delay_choices[(splitmix64(rng) % 4) as usize],
        max_delay: Duration::from_millis(1 + splitmix64(rng) % 15),
        disconnect_per_10k: 0,
        disconnect_c2s_only: true,
        // Partition fates are race-keyed like disconnects (see above);
        // partitions come only from the driver's own schedule ops.
        partition_per_10k: 0,
        partition_heal: Duration::ZERO,
    }
}

pub(crate) fn explorer_server_config(
    clock: Clock,
    process_faults: ProcessFaultPlan,
) -> ServerConfig {
    ServerConfig {
        workers: 1,
        jobs: 1,
        engine: CemEngine::Fast,
        // Generous virtual deadline: the ladder never degrades on time
        // pressure, keeping reply levels seed-deterministic.
        deadline: Duration::from_secs(10),
        ladder_deadline: false,
        max_batch: 4,
        batch_wait: Duration::from_millis(1),
        // Effectively unbounded admission: any `Busy` is a violation.
        queue_depth: 4096,
        read_timeout: Duration::from_millis(5),
        // Panicking workers restart fast and forever (panic plans fire
        // repeatedly); determinism is unaffected because replies are
        // content-deterministic regardless of batching.
        max_restarts: 1000,
        restart_backoff: Duration::from_millis(2),
        restart_backoff_cap: Duration::from_millis(20),
        // No forced replay-log evictions and no parked-capacity
        // evictions at explorer scale.
        replay_window: 4096,
        max_parked: 16,
        parked_ttl: PARKED_TTL,
        // The server's patience for a park to land before a resume is
        // answered fresh. Park landing needs the old reader thread to
        // be scheduled — tens of ms under CPU contention — and a miss
        // here surfaces as a spurious "session lost". The condvar wakes
        // the claim the moment the park lands, so this budget is only
        // fully spent when the park never comes; the client's handshake
        // wait (`pump_until_patient`, 400 ms) must outlast it.
        resume_claim_wait: Duration::from_millis(150),
        // The breaker guards the SMT rung, unused under `Fast` — and it
        // would drag in process-global clock state.
        breaker: None,
        process_faults,
        clock,
        injected_bug: None,
        ..ServerConfig::default()
    }
}

/// Explore one seed. With `inject_bug` set this instead runs the
/// scripted replay-gap scenario (see [`run_bug_scenario`]), which is
/// deterministic down to the violation text.
pub fn run_seed(seed: u64, cfg: &SimtestConfig) -> SeedOutcome {
    if let Some(bug) = cfg.inject_bug {
        return run_bug_scenario(seed, bug);
    }
    let fx = fixture();
    let (clock, vc) = Clock::new_virtual();
    let net = SimNet::new(seed, clock.clone());
    let mut rng = seed ^ 0x6c07_9768_25e6_cd21;

    let profile = derive_profile(&mut rng);
    let mut pf = ProcessFaultPlan::none();
    pf.worker_panic_every = [0u64, 0, 3, 5][(splitmix64(&mut rng) % 4) as usize];

    let mut server_cfg = explorer_server_config(clock, pf);
    server_cfg.wire = cfg.wire;
    let handle = spawn_with(net.transport(), Arc::clone(&fx.model), server_cfg);
    let mut world = World::new(net.clone(), Some(vc), cfg.clients, cfg.wire);
    // Initial handshakes run before the fault profile is armed: every
    // session lineage starts from a clean Welcome.
    for i in 0..cfg.clients {
        world.handshake(i);
    }
    world.net.set_profile(profile);

    for _ in 0..cfg.ops {
        // Exactly three draws per op, unconditionally: the random
        // stream never depends on world state, so the schedule is a
        // pure function of the seed.
        let r = splitmix64(&mut rng) % 100;
        let i = (splitmix64(&mut rng) as usize) % cfg.clients.max(1);
        let aux = splitmix64(&mut rng);
        // Surface any duplex deaths before branching on aliveness.
        world.pump_once();
        if r < 35 {
            if world.clients[i].is_alive() || world.handshake(i) {
                world.burst(i, 1 + (aux % 3) as usize);
            }
        } else if r < 55 {
            world.settle();
        } else if r < 70 {
            if world.clients[i].is_alive() {
                world.kill(i);
            }
        } else if r < 85 {
            if world.clients[i].is_alive() {
                world.advance_small(aux);
            } else {
                world.handshake(i);
            }
        } else if r < 92 {
            if world.clients[i].is_alive() || world.handshake(i) {
                world.send_bad(i);
            }
        } else if r < 97 {
            world.advance_small(aux);
        } else {
            world.expire(&handle, i);
        }
    }

    world.final_drain();
    let _ = handle.shutdown();
    net.close();
    world.into_outcome(seed)
}

/// Scripted detector scenario for an injected protocol bug, built so
/// the caught violation is identical on every run (no races, no
/// faults, real clock):
///
/// 1. settle a warm session (seqs 1–3 resolved),
/// 2. send two more intervals and wait — via server-side counters, not
///    the wire — until both replies are *recorded*,
/// 3. hard-kill the connection before reading them: the client now
///    presents `last_acked = 3` and both seqs sit at or below the
///    server's watermark, squarely in replay territory,
/// 4. resume. A correct server replays 4 and 5; `ReplayOffByOne`
///    silently skips 4, which no drain cycle can ever recover (the
///    client must not re-send a seq the watermark says was ingested) —
///    the completeness check reports it.
fn run_bug_scenario(seed: u64, bug: ProtocolBug) -> SeedOutcome {
    let fx = fixture();
    let net = SimNet::new(seed, Clock::System);
    let mut server_cfg = explorer_server_config(Clock::System, ProcessFaultPlan::none());
    server_cfg.injected_bug = Some(bug);
    // Real clock here: TTL and backoffs must be real-time sane.
    server_cfg.parked_ttl = Duration::from_secs(30);
    let handle = spawn_with(net.transport(), Arc::clone(&fx.model), server_cfg);
    let mut world = World::new(net.clone(), None, 1, WireCodec::Json);
    world.handshake(0);
    world.burst(0, 3);
    world.settle();
    let base = stats_replies(&handle);
    world.burst(0, 2);
    let deadline = Instant::now() + Duration::from_secs(5);
    while stats_replies(&handle) < base + 2 && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(1));
    }
    world.kill(0);
    world.final_drain();
    let _ = handle.shutdown();
    net.close();
    world.into_outcome(seed)
}

fn stats_replies(handle: &ServerHandle<SimConn>) -> u64 {
    match handle.stats() {
        Frame::StatsReply { replies, .. } => replies,
        _ => 0,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick_cfg() -> SimtestConfig {
        SimtestConfig {
            seeds: 1,
            start_seed: 1,
            clients: 3,
            ops: 12,
            inject_bug: None,
            wire: WireCodec::Json,
        }
    }

    /// A correct server survives fault schedules with zero violations,
    /// and the same seed reproduces the same fingerprint bitwise.
    #[test]
    fn clean_seeds_are_violation_free_and_deterministic() {
        let cfg = quick_cfg();
        for seed in [11, 12, 13] {
            let a = run_seed(seed, &cfg);
            assert!(
                a.violations.is_empty(),
                "seed {seed} violations: {:?}",
                a.violations
            );
            let b = run_seed(seed, &cfg);
            assert_eq!(
                a.fingerprint, b.fingerprint,
                "seed {seed} fingerprint not reproducible"
            );
            assert_eq!(a.violations, b.violations);
        }
    }

    /// The wire codec is a transport detail: the same seed lands on the
    /// same reply fingerprint whether sessions negotiate bin1 or stay
    /// on JSON, and bin1 runs stay violation-free.
    #[test]
    fn bin1_seeds_reproduce_json_fingerprints() {
        let json_cfg = quick_cfg();
        let bin_cfg = SimtestConfig {
            wire: WireCodec::Bin1,
            ..quick_cfg()
        };
        for seed in [11, 12] {
            let j = run_seed(seed, &json_cfg);
            let b = run_seed(seed, &bin_cfg);
            assert!(
                b.violations.is_empty(),
                "seed {seed} bin1 violations: {:?}",
                b.violations
            );
            assert_eq!(
                j.fingerprint, b.fingerprint,
                "seed {seed} fingerprint depends on the wire codec"
            );
        }
    }

    /// The harness must catch a deliberately broken replay — and catch
    /// it identically on a re-run of the same seed.
    #[test]
    fn injected_replay_bug_is_caught_and_reproduced() {
        let cfg = SimtestConfig {
            inject_bug: Some(ProtocolBug::ReplayOffByOne),
            ..quick_cfg()
        };
        let a = run_seed(7, &cfg);
        assert!(
            !a.violations.is_empty(),
            "injected ReplayOffByOne was not caught"
        );
        assert!(
            a.violations.iter().any(|v| v.contains("unresolved")),
            "expected a completeness violation, got {:?}",
            a.violations
        );
        let b = run_seed(7, &cfg);
        assert_eq!(a.fingerprint, b.fingerprint);
        assert_eq!(a.violations, b.violations);
    }
}
