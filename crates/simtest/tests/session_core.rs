//! The session core driven directly: no transport, no threads, no real
//! time. A seeded schedule of fresh `Hello`s, reply commits, disconnects
//! (the core parks the lineage and the undelivered replies are lost),
//! resumes with `last_acked`, duplicate seqs and parked-TTL expiries is
//! fed to one [`SessionCore`], and every frame the core emits — each
//! `Welcome` and every reply it answers from a lineage — is checked by
//! the same fault-oblivious [`ClientModel`] the socket-level explorers
//! use. The test stands in for the host only where replies come from:
//! a new seq is answered `Ack` while the window warms up and `Imputed`
//! after, a seq on an unannounced port is answered `Reject`.

use fmml_obs::hash::splitmix64;
use fmml_obs::{Clock, Counter, Gauge, VirtualClock};
use fmml_serve::protocol::{decode_frame, encode_frame_with, Frame, WireCodec, MAX_FRAME_LEN};
use fmml_serve::session::{
    CoreConfig, LifecycleMetrics, Lineage, Opening, SessionCore, TokenStyle,
};
use fmml_serve::ProtocolBug;
use fmml_simtest::{ClientModel, ResumeExpect};
use std::collections::{BTreeMap, VecDeque};
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::Duration;

const WINDOW_INTERVALS: usize = 3;
const PARKED_TTL: Duration = Duration::from_secs(60);
const CLIENTS: usize = 3;
const OPS: usize = 40;

static METRICS: LifecycleMetrics = LifecycleMetrics {
    sessions: Counter::new("simtest.core.sessions"),
    active: Gauge::new("simtest.core.sessions.active"),
    parked: Gauge::new("simtest.core.sessions.parked"),
    resumes: Counter::new("simtest.core.resumes"),
    resume_misses: Counter::new("simtest.core.resume_misses"),
    replayed: Counter::new("simtest.core.replayed"),
    replies: Counter::new("simtest.core.replies"),
    malformed: Counter::new("simtest.core.malformed"),
};

/// What the stand-in host keeps per lineage: the lineage itself and
/// how many intervals its window has ingested.
struct Sess {
    lineage: Arc<Lineage>,
    ingested: usize,
}

struct Client {
    model: ClientModel,
    /// `Some` while connected: the lineage this connection is attached to.
    conn: Option<Sess>,
    token: Option<String>,
    expired_token: bool,
    /// Reply bytes written to the connection but not yet read by the
    /// client; a disconnect loses them.
    inbox: VecDeque<Vec<u8>>,
    /// Every sent seq and whether it was well-formed (for re-sends).
    sent: BTreeMap<u64, bool>,
}

struct World {
    core: SessionCore<Sess>,
    vc: Arc<VirtualClock>,
    clients: Vec<Client>,
    wire: WireCodec,
    /// Handshakes that presented an expired token.
    expiries: u64,
}

fn decode(bytes: &[u8]) -> Frame {
    decode_frame(bytes)
        .expect("core emitted undecodable bytes")
        .expect("core emitted a partial frame")
        .0
}

impl World {
    fn new(bug: Option<ProtocolBug>, wire: WireCodec) -> World {
        let (clock, vc) = Clock::new_virtual();
        World {
            core: SessionCore::new(CoreConfig {
                wire: WireCodec::Bin1,
                replay_window: 4096,
                max_parked: 16,
                parked_ttl: PARKED_TTL,
                // Single-threaded: a claim never has to wait for a park.
                claim_wait: Duration::ZERO,
                clock,
                injected_bug: bug,
                tokens: TokenStyle::Node,
                metrics: &METRICS,
            }),
            vc,
            clients: (0..CLIENTS)
                .map(|id| Client {
                    model: ClientModel::new(id, WINDOW_INTERVALS),
                    conn: None,
                    token: None,
                    expired_token: false,
                    inbox: VecDeque::new(),
                    sent: BTreeMap::new(),
                })
                .collect(),
            wire,
            expiries: 0,
        }
    }

    /// The host's half of an `Interval`: a duplicate is answered from
    /// the lineage, a new seq is answered and committed before the write.
    fn receive(&mut self, i: usize, seq: u64, good: bool) {
        let core = &self.core;
        let c = &mut self.clients[i];
        let Some(sess) = c.conn.as_mut() else { return };
        if let Some(bytes) = core.duplicate(&sess.lineage, seq) {
            core.reply_sent();
            c.inbox.push_back(bytes);
            return;
        }
        let frame = if !good {
            Frame::Reject {
                seq,
                reason: "port 1001 not announced in Hello".into(),
            }
        } else if sess.ingested < WINDOW_INTERVALS - 1 {
            sess.ingested += 1;
            Frame::Ack {
                seq,
                buffered: sess.ingested,
            }
        } else {
            sess.ingested += 1;
            Frame::Imputed {
                seq,
                port: 1,
                series: vec![vec![seq as u32 % 97, sess.ingested as u32]],
                level: "full".into(),
                enforced: true,
                latency_us: 0,
                trace_id: None,
            }
        };
        let bytes = encode_frame_with(&frame, sess.lineage.codec(), MAX_FRAME_LEN).unwrap();
        sess.lineage.commit(seq, &bytes);
        core.reply_sent();
        c.inbox.push_back(bytes);
    }

    fn send(&mut self, i: usize, good: bool) {
        if self.clients[i].conn.is_none() {
            return;
        }
        let m = &mut self.clients[i].model;
        let seq = if good { m.alloc_good() } else { m.alloc_bad() };
        self.clients[i].sent.insert(seq, good);
        self.receive(i, seq, good);
    }

    /// The client reads everything written to it so far.
    fn pump(&mut self, i: usize) {
        let c = &mut self.clients[i];
        while let Some(bytes) = c.inbox.pop_front() {
            c.model.on_reply(&decode(&bytes));
        }
    }

    fn kill(&mut self, i: usize) {
        let c = &mut self.clients[i];
        c.inbox.clear();
        if let Some(sess) = c.conn.take() {
            let lineage = Arc::clone(&sess.lineage);
            drop(self.core.park(&lineage, sess));
        }
    }

    fn handshake(&mut self, i: usize) {
        let c = &mut self.clients[i];
        let expect = match (&c.token, c.expired_token) {
            (None, _) => ResumeExpect::Fresh,
            (Some(_), false) => ResumeExpect::Valid,
            (Some(_), true) => ResumeExpect::Expired,
        };
        self.expiries += u64::from(expect == ResumeExpect::Expired);
        let hello = Frame::Hello {
            tenant: format!("c{i}"),
            ports: vec![1],
            queues: 1,
            interval_len: 10,
            window_intervals: WINDOW_INTERVALS,
            resume_token: c.token.clone(),
            last_acked: c.token.as_ref().map(|_| c.model.last_acked()),
            codecs: (self.wire == WireCodec::Bin1).then(WireCodec::advertise),
        };
        let (welcome, sess, replies) = match self.core.open(hello) {
            Err(_) => {
                c.model.violation("well-formed Hello refused".into());
                return;
            }
            Ok(Opening::Fresh { id, lineage, .. }) => {
                let welcome = self.core.welcome(id, &lineage, 50);
                let sess = Sess {
                    lineage: Arc::new(lineage),
                    ingested: 0,
                };
                (welcome, sess, Vec::new())
            }
            Ok(Opening::Resume {
                id,
                last_acked,
                state,
            }) => {
                let replay = self.core.resume(id, &state.lineage, last_acked, 50);
                self.core.resumed(replay.replies.len() as u64);
                (replay.welcome, state, replay.replies)
            }
        };
        let Frame::Welcome {
            resumed,
            resume_seq,
            resume_token,
            ..
        } = decode(&welcome)
        else {
            c.model
                .violation("handshake answered without a Welcome".into());
            return;
        };
        c.token = resume_token;
        c.expired_token = false;
        c.conn = Some(sess);
        c.inbox.extend(replies);
        match c.model.on_welcome(expect, resumed, resume_seq) {
            Some(r) => {
                // Everything pending above the watermark never reached
                // the lineage: the client re-sends it, in seq order.
                let resend: Vec<(u64, bool)> = c
                    .model
                    .pending_seqs()
                    .into_iter()
                    .filter(|&s| s > r)
                    .map(|s| (s, c.sent[&s]))
                    .collect();
                for (seq, good) in resend {
                    self.receive(i, seq, good);
                }
            }
            None => c.sent.clear(),
        }
    }

    /// Age every parked lineage past the TTL. Expiry deletes replay
    /// logs, so only clean lineages may be parked when the clock jumps:
    /// dead clients still owed replies are resumed and drained first.
    fn expire(&mut self, target: usize) {
        for i in 0..CLIENTS {
            let c = &self.clients[i];
            if c.conn.is_none() && !c.expired_token && !c.model.pending_is_empty() {
                self.handshake(i);
                self.pump(i);
            }
        }
        if self.clients[target].conn.is_some() {
            self.pump(target);
            if self.clients[target].model.pending_is_empty() {
                self.kill(target);
            }
        }
        self.vc.advance(PARKED_TTL + Duration::from_secs(1));
        for c in &mut self.clients {
            if c.conn.is_none() && c.model.pending_is_empty() {
                c.expired_token = true;
            }
        }
    }

    fn duplicate(&mut self, i: usize, pick: u64) {
        let c = &self.clients[i];
        if c.conn.is_none() || c.sent.is_empty() {
            return;
        }
        let (&seq, &good) = c.sent.iter().nth(pick as usize % c.sent.len()).unwrap();
        self.receive(i, seq, good);
    }
}

/// What one seed did: violations, reply fingerprint, and how often the
/// paths under test ran.
struct Outcome {
    violations: Vec<String>,
    fingerprint: u64,
    resumes: u64,
    replayed: u64,
    expiries: u64,
}

fn run(seed: u64, bug: Option<ProtocolBug>, wire: WireCodec) -> Outcome {
    let mut w = World::new(bug, wire);
    let mut rng = seed;
    for i in 0..CLIENTS {
        w.handshake(i);
    }
    for _ in 0..OPS {
        let r = splitmix64(&mut rng) % 100;
        let i = (splitmix64(&mut rng) % CLIENTS as u64) as usize;
        let aux = splitmix64(&mut rng);
        let alive = w.clients[i].conn.is_some();
        match r {
            0..=34 if alive => (0..1 + aux % 3).for_each(|_| w.send(i, true)),
            0..=34 => w.handshake(i),
            35..=49 => w.pump(i),
            50..=64 if alive => {
                // A disconnect loses a seed-chosen suffix of the unread
                // replies; the rest were read before it.
                let keep = aux as usize % (w.clients[i].inbox.len() + 1);
                for _ in 0..keep {
                    let bytes = w.clients[i].inbox.pop_front().unwrap();
                    w.clients[i].model.on_reply(&decode(&bytes));
                }
                w.kill(i);
            }
            65..=74 if !alive => w.handshake(i),
            75..=82 if alive => w.send(i, false),
            83..=92 if alive => w.duplicate(i, aux),
            93..=99 => w.expire(i),
            _ => {}
        }
    }
    // Final drain: every lineage still owed something is resumed and
    // read to the end; then nothing may be left unresolved.
    for i in 0..CLIENTS {
        let c = &w.clients[i];
        if c.conn.is_none() && !(c.expired_token && c.model.pending_is_empty()) {
            w.handshake(i);
        }
        w.pump(i);
        w.clients[i].model.final_check();
    }
    let mut violations = Vec::new();
    let mut fingerprint = 0u64;
    for c in &w.clients {
        violations.extend(c.model.violations().iter().cloned());
        fingerprint = c.model.fold_fingerprint(fingerprint);
    }
    let counters = w.core.counters();
    Outcome {
        violations,
        fingerprint,
        resumes: counters.resumes.load(Ordering::Relaxed),
        replayed: counters.replayed.load(Ordering::Relaxed),
        expiries: w.expiries,
    }
}

#[test]
fn core_keeps_exactly_once_across_park_resume_duplicate_and_expiry() {
    let (mut resumes, mut replayed, mut expiries) = (0, 0, 0);
    for seed in 1..=300 {
        let json = run(seed, None, WireCodec::Json);
        assert!(
            json.violations.is_empty(),
            "seed {seed}: {:?}",
            json.violations
        );
        let bin1 = run(seed, None, WireCodec::Bin1);
        assert!(
            bin1.violations.is_empty(),
            "seed {seed} (bin1): {:?}",
            bin1.violations
        );
        assert_eq!(
            json.fingerprint, bin1.fingerprint,
            "seed {seed}: fingerprint depends on the codec"
        );
        resumes += json.resumes;
        replayed += json.replayed;
        expiries += json.expiries;
    }
    // The schedules must actually reach the paths they claim to check.
    assert!(resumes > 100, "only {resumes} resumes");
    assert!(replayed > 100, "only {replayed} replayed replies");
    assert!(expiries > 20, "only {expiries} expired-token handshakes");
}

#[test]
fn core_level_checker_catches_replay_off_by_one() {
    let caught: Vec<u64> = (1..=300)
        .filter(|&seed| {
            run(seed, Some(ProtocolBug::ReplayOffByOne), WireCodec::Json)
                .violations
                .iter()
                .any(|v| v.contains("unresolved"))
        })
        .collect();
    eprintln!("ReplayOffByOne caught on {} of 300 seeds", caught.len());
    assert!(
        caught.len() >= 10,
        "ReplayOffByOne injected into the core caught on only {caught:?}"
    );
}
