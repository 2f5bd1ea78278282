//! Loopback integration tests for the cluster router over real TCP:
//! placement, bitwise identity with offline enforcement across a
//! backend kill + migration, client resume at the router, and the
//! drain-driven rebalance path.

use fmml_cluster::{RouterConfig, RouterHandle};
use fmml_core::streaming::{IntervalUpdate, StreamOptions, StreamingImputer};
use fmml_core::transformer_imputer::{Scales, TransformerImputer};
use fmml_fm::cem::{CemEngine, DegradationLevel, LadderConfig};
use fmml_netsim::traffic::TrafficConfig;
use fmml_netsim::{SimConfig, Simulation};
use fmml_serve::protocol::{
    encode_frame, encode_frame_capped, write_bytes, write_frame, write_frame_with, Frame,
    FrameReader, WireCodec, MAX_FRAME_LEN,
};
use fmml_serve::{spawn, ServerConfig, ServerHandle, TcpConnector, WireError};
use fmml_telemetry::{windows_from_trace, PortWindow};
use std::net::{Shutdown, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;

const INTERVAL_LEN: usize = 10;
const WINDOW_INTERVALS: usize = 3;

fn model() -> Arc<TransformerImputer> {
    let cfg = SimConfig::small();
    Arc::new(TransformerImputer::new(
        3,
        Scales {
            qlen: cfg.buffer_packets as f32,
            count: 830.0,
        },
    ))
}

fn windows() -> Vec<PortWindow> {
    let cfg = SimConfig::small();
    let gt = Simulation::new(
        cfg.clone(),
        TrafficConfig::websearch_incast(cfg.num_ports, 0.6),
        19,
    )
    .run_ms(360);
    // 12 intervals per window: long enough to split a session around a
    // backend kill with full context windows on both sides.
    windows_from_trace(
        &gt,
        INTERVAL_LEN * WINDOW_INTERVALS * 4,
        INTERVAL_LEN,
        INTERVAL_LEN * WINDOW_INTERVALS * 4,
    )
    .into_iter()
    .filter(|w| w.has_activity())
    .collect()
}

fn backend(model: &Arc<TransformerImputer>) -> ServerHandle {
    spawn(
        Arc::clone(model),
        ServerConfig {
            workers: 1,
            deadline: Duration::from_millis(500),
            ..ServerConfig::default()
        },
    )
    .expect("spawn backend")
}

fn router() -> RouterHandle {
    fmml_cluster::spawn(RouterConfig {
        probe_interval: Duration::from_millis(50),
        probe_failures: 2,
        dial_timeout: Duration::from_millis(500),
        ..RouterConfig::default()
    })
    .expect("spawn router")
}

fn connect(addr: std::net::SocketAddr) -> (TcpStream, FrameReader<TcpStream>) {
    let stream = TcpStream::connect(addr).expect("connect");
    stream.set_nodelay(true).unwrap();
    let reader = FrameReader::new(stream.try_clone().unwrap());
    (stream, reader)
}

fn hello(port: usize, queues: usize) -> Frame {
    Frame::Hello {
        tenant: "test".into(),
        ports: vec![port],
        queues,
        interval_len: INTERVAL_LEN,
        window_intervals: WINDOW_INTERVALS,
        resume_token: None,
        last_acked: None,
        codecs: None,
    }
}

fn offline(
    model: &Arc<TransformerImputer>,
    w: &PortWindow,
) -> StreamingImputer<Arc<TransformerImputer>> {
    let opts = StreamOptions {
        ladder: LadderConfig {
            engine: CemEngine::Fast,
            ..LadderConfig::default()
        },
        ..StreamOptions::default()
    };
    StreamingImputer::with_options(
        Arc::clone(model),
        opts,
        w.port,
        w.num_queues(),
        INTERVAL_LEN,
        WINDOW_INTERVALS,
    )
}

/// Assert one router reply matches the offline reference for interval
/// `k` of window `w` at sequence `seq`.
fn check_reply(
    reply: Frame,
    expect: Option<fmml_core::streaming::ImputedInterval>,
    w: &PortWindow,
    seq: u64,
    k: usize,
) {
    match reply {
        Frame::Ack { seq: s, .. } => {
            assert_eq!(s, seq);
            assert!(
                expect.is_none(),
                "router acked where offline emitted (k={k})"
            );
        }
        Frame::Imputed {
            seq: s,
            port,
            series,
            level,
            enforced,
            ..
        } => {
            let expect = expect.expect("offline must emit too");
            assert_eq!(s, seq);
            assert_eq!(port, w.port);
            assert_eq!(series, expect.series, "series diverge at k={k}");
            assert_eq!(
                DegradationLevel::from_label(&level),
                Some(expect.level),
                "levels diverge at k={k}"
            );
            assert_eq!(enforced, expect.enforced);
        }
        other => panic!("unexpected {other:?} at k={k}"),
    }
}

/// The tentpole end-to-end test: a session placed on backend "a"
/// survives "a" being killed mid-stream. The router migrates it to "b"
/// with a warm-up replay, and every reply — before and after the kill —
/// is **bitwise identical** to the offline enforcement path. The client
/// never sees the failure: each seq is answered exactly once, in order.
#[test]
fn kill_one_backend_loses_nothing_and_stays_bitwise() {
    let model = model();
    let ws = windows();
    let w = &ws[0];
    let rt = router();
    let a = backend(&model);
    rt.add_backend(
        "a",
        TcpConnector {
            addr: a.addr().to_string(),
        },
    );

    let (mut tx, mut rx) = connect(rt.addr());
    write_frame(&mut tx, &hello(w.port, w.num_queues())).unwrap();
    let token = match rx.read_frame().unwrap() {
        Frame::Welcome {
            resume_token: Some(t),
            resumed,
            ..
        } => {
            assert_eq!(resumed, Some(false));
            assert!(
                t.starts_with("rtok-"),
                "router must mint its own token: {t}"
            );
            t
        }
        other => panic!("expected Welcome, got {other:?}"),
    };

    let mut reference = offline(&model, w);
    let total = w.intervals();
    assert!(total >= 6, "fixture too small to split around a kill");
    let split = total / 2;

    // First half on backend "a".
    for (k, seq) in (0..split).zip(1u64..) {
        let u = IntervalUpdate::from_window(w, k);
        let expect = reference.try_push(u.clone()).unwrap();
        write_frame(
            &mut tx,
            &Frame::Interval {
                seq,
                update: u,
                trace_id: Some(seq),
            },
        )
        .unwrap();
        check_reply(rx.read_frame().unwrap(), expect, w, seq, k);
    }

    // Bring up "b", then kill "a" hard. The session must migrate.
    let b = backend(&model);
    rt.add_backend(
        "b",
        TcpConnector {
            addr: b.addr().to_string(),
        },
    );
    a.shutdown();

    // Second half: same wire conversation, now transparently on "b".
    for (k, seq) in (split..total).zip(split as u64 + 1..) {
        let u = IntervalUpdate::from_window(w, k);
        let expect = reference.try_push(u.clone()).unwrap();
        write_frame(
            &mut tx,
            &Frame::Interval {
                seq,
                update: u,
                trace_id: Some(seq),
            },
        )
        .unwrap();
        check_reply(rx.read_frame().unwrap(), expect, w, seq, k);
    }

    // Graceful goodbye through the router: everything answered.
    write_frame(&mut tx, &Frame::Bye).unwrap();
    match rx.read_frame().unwrap() {
        Frame::ByeAck {
            answered,
            remaining,
        } => {
            assert_eq!(answered, total as u64);
            assert_eq!(remaining, 0);
        }
        other => panic!("expected ByeAck, got {other:?}"),
    }

    let (migrations, _resumes, _replayed) = rt.cluster_stats();
    assert!(migrations >= 1, "the kill must have forced a migration");
    let _ = token;
    let stats = rt.shutdown();
    let Frame::StatsReply { replies, .. } = stats else {
        panic!("stats frame")
    };
    assert_eq!(replies, total as u64);
    b.shutdown();
}

/// PR-7 resume semantics terminate at the router: a client that
/// vanishes and reconnects with its token gets `resumed: true` plus a
/// replay of everything past its ack watermark — while the backend
/// session hums along untouched.
#[test]
fn client_resume_replays_from_router_log() {
    let model = model();
    let ws = windows();
    let w = &ws[0];
    let rt = router();
    let a = backend(&model);
    rt.add_backend(
        "a",
        TcpConnector {
            addr: a.addr().to_string(),
        },
    );

    let (mut tx, mut rx) = connect(rt.addr());
    write_frame(&mut tx, &hello(w.port, w.num_queues())).unwrap();
    let token = match rx.read_frame().unwrap() {
        Frame::Welcome {
            resume_token: Some(t),
            ..
        } => t,
        other => panic!("expected Welcome, got {other:?}"),
    };

    let mut reference = offline(&model, w);
    let mut expected = Vec::new();
    for (k, seq) in (0..3usize).zip(1u64..) {
        let u = IntervalUpdate::from_window(w, k);
        expected.push((seq, k, reference.try_push(u.clone()).unwrap()));
        write_frame(
            &mut tx,
            &Frame::Interval {
                seq,
                update: u,
                trace_id: None,
            },
        )
        .unwrap();
        let reply = rx.read_frame().unwrap();
        let (s, kk, e) = expected.last().cloned().unwrap();
        check_reply(reply, e, w, s, kk);
    }

    // Vanish without a Bye, then come back claiming nothing was acked:
    // the router replays all three replies from its own log.
    drop(tx);
    drop(rx);
    std::thread::sleep(Duration::from_millis(30));
    let (mut tx2, mut rx2) = connect(rt.addr());
    write_frame(
        &mut tx2,
        &Frame::Hello {
            tenant: "test".into(),
            ports: vec![w.port],
            queues: w.num_queues(),
            interval_len: INTERVAL_LEN,
            window_intervals: WINDOW_INTERVALS,
            resume_token: Some(token),
            last_acked: Some(0),
            codecs: None,
        },
    )
    .unwrap();
    match rx2.read_frame().unwrap() {
        Frame::Welcome {
            resumed,
            resume_seq,
            ..
        } => {
            assert_eq!(resumed, Some(true));
            assert_eq!(resume_seq, Some(3));
        }
        other => panic!("expected resumed Welcome, got {other:?}"),
    }
    for (seq, k, expect) in expected {
        check_reply(rx2.read_frame().unwrap(), expect, w, seq, k);
    }
    // And the session still works for new intervals.
    let u = IntervalUpdate::from_window(w, 3);
    let expect = reference.try_push(u.clone()).unwrap();
    write_frame(
        &mut tx2,
        &Frame::Interval {
            seq: 4,
            update: u,
            trace_id: None,
        },
    )
    .unwrap();
    check_reply(rx2.read_frame().unwrap(), expect, w, 4, 3);

    let (_m, resumes, replayed) = rt.cluster_stats();
    assert_eq!(resumes, 1);
    assert!(
        replayed >= 3,
        "expected >=3 replayed replies, got {replayed}"
    );
    rt.shutdown();
    a.shutdown();
}

/// A draining backend pushes its placements away: `begin_drain` on the
/// only backend makes new placements land on the other node once it
/// joins, without dropping the existing session.
#[test]
fn draining_backend_sheds_new_placements() {
    let model = model();
    let ws = windows();
    let w = &ws[0];
    let rt = router();
    let a = backend(&model);
    let b = backend(&model);
    rt.add_backend(
        "a",
        TcpConnector {
            addr: a.addr().to_string(),
        },
    );
    rt.add_backend(
        "b",
        TcpConnector {
            addr: b.addr().to_string(),
        },
    );

    // Open a session, then drain *both* prospective homes' peer: drain
    // "a" so every new placement that hashes there bounces to "b".
    let (mut tx, mut rx) = connect(rt.addr());
    write_frame(&mut tx, &hello(w.port, w.num_queues())).unwrap();
    assert!(matches!(rx.read_frame().unwrap(), Frame::Welcome { .. }));
    let u = IntervalUpdate::from_window(w, 0);
    write_frame(
        &mut tx,
        &Frame::Interval {
            seq: 1,
            update: u,
            trace_id: None,
        },
    )
    .unwrap();
    assert!(matches!(
        rx.read_frame().unwrap(),
        Frame::Ack { seq: 1, .. } | Frame::Imputed { seq: 1, .. }
    ));

    a.begin_drain();
    // New sessions keep working no matter which shard the ring picks:
    // placements that hash to "a" are refused with `draining` and
    // bounce to "b" transparently.
    for _ in 0..4 {
        let (mut tx2, mut rx2) = connect(rt.addr());
        write_frame(&mut tx2, &hello(w.port, w.num_queues())).unwrap();
        assert!(matches!(rx2.read_frame().unwrap(), Frame::Welcome { .. }));
        let u = IntervalUpdate::from_window(w, 0);
        write_frame(
            &mut tx2,
            &Frame::Interval {
                seq: 1,
                update: u,
                trace_id: None,
            },
        )
        .unwrap();
        assert!(matches!(
            rx2.read_frame().unwrap(),
            Frame::Ack { seq: 1, .. } | Frame::Imputed { seq: 1, .. }
        ));
        write_frame(&mut tx2, &Frame::Bye).unwrap();
        assert!(matches!(rx2.read_frame().unwrap(), Frame::ByeAck { .. }));
    }

    rt.shutdown();
    a.shutdown();
    b.shutdown();
}

/// Pre-handshake `Stats` probes are answered by the router itself, and
/// its `StatsReply` reflects cluster-level counters.
#[test]
fn router_answers_probes_locally() {
    let model = model();
    let rt = router();
    let a = backend(&model);
    rt.add_backend(
        "a",
        TcpConnector {
            addr: a.addr().to_string(),
        },
    );

    let (mut tx, mut rx) = connect(rt.addr());
    write_frame(&mut tx, &Frame::Stats).unwrap();
    assert!(matches!(rx.read_frame().unwrap(), Frame::StatsReply { .. }));
    write_frame(&mut tx, &Frame::MetricsDump).unwrap();
    match rx.read_frame().unwrap() {
        Frame::MetricsReply { json } => {
            assert!(json.contains("metrics"), "dump must carry a metrics object");
        }
        other => panic!("expected MetricsReply, got {other:?}"),
    }

    let infos = rt.backends();
    assert_eq!(infos.len(), 1);
    assert!(infos[0].up);
    rt.shutdown();
    a.shutdown();
}

/// Regression: a `Hello` with invalid geometry is refused by the router
/// itself (`Error{bad_handshake}`, the single-node answer) before any
/// placement. Forwarding it instead made every backend refuse the
/// handshake, each refusal counted as a dial failure, and the router
/// demoted both healthy backends and answered the client `Welcome`.
#[test]
fn bad_geometry_hello_is_refused_without_demoting_backends() {
    let model = model();
    let rt = fmml_cluster::spawn(RouterConfig {
        // No probe round runs during the test, so a wrongly demoted
        // backend cannot be re-promoted before the assertion.
        probe_interval: Duration::from_secs(30),
        probe_failures: 2,
        dial_timeout: Duration::from_millis(500),
        ..RouterConfig::default()
    })
    .expect("spawn router");
    let a = backend(&model);
    let b = backend(&model);
    for (name, node) in [("a", &a), ("b", &b)] {
        rt.add_backend(
            name,
            TcpConnector {
                addr: node.addr().to_string(),
            },
        );
    }

    let (mut tx, mut rx) = connect(rt.addr());
    write_frame(
        &mut tx,
        &Frame::Hello {
            tenant: "test".into(),
            ports: vec![0],
            queues: 0,
            interval_len: INTERVAL_LEN,
            window_intervals: WINDOW_INTERVALS,
            resume_token: None,
            last_acked: None,
            codecs: None,
        },
    )
    .unwrap();
    match rx.read_frame().unwrap() {
        Frame::Error { code, .. } => assert_eq!(code, "bad_handshake"),
        other => panic!("expected Error{{bad_handshake}}, got {other:?}"),
    }
    let infos = rt.backends();
    assert_eq!(infos.len(), 2);
    assert!(
        infos.iter().all(|b| b.up),
        "a refused Hello demoted backends: {infos:?}"
    );
    // The router is left running: joining its prober would wait out the
    // 30 s probe interval.
    a.shutdown();
    b.shutdown();
}

// ---------------------------------------------------------------------
// Raised-cap regression: frames past the default 1 MiB cap must cross
// the router intact, including the migration warm-up replay. The model
// server can't produce over-cap replies in test time, so these tests
// stand up a protocol-faithful fake backend whose replies are a pure
// function of the request seq — which also makes bitwise identity
// across a migration checkable without a model in the loop.
// ---------------------------------------------------------------------

/// Links raised four-fold above the stock frame cap.
const RAISED: usize = 4 * MAX_FRAME_LEN;

/// A deterministic interval update whose JSON encoding exceeds the
/// default [`MAX_FRAME_LEN`] (240k four-digit values ≈ 1.2 MiB).
fn big_update(seq: u64) -> IntervalUpdate {
    let n = 120_000usize;
    IntervalUpdate {
        port: 1,
        samples: (0..n)
            .map(|i| 1000 + ((seq as usize * 13 + i) % 9000) as u32)
            .collect(),
        maxes: (0..n)
            .map(|i| 1000 + ((seq as usize * 17 + i) % 9000) as u32)
            .collect(),
        sent: 10,
        dropped: 0,
        received: 10,
    }
}

/// The fake backend's reply series for `seq` — again over-cap as JSON
/// (230k four-digit values ≈ 1.15 MiB) and derivable by the client for
/// exact comparison.
fn big_series(seq: u64) -> Vec<Vec<u32>> {
    (0..96usize)
        .map(|q| {
            (0..2400usize)
                .map(|t| 1000 + ((seq as usize * 31 + q * 7 + t) % 9000) as u32)
                .collect()
        })
        .collect()
}

/// One fake-backend connection: answer router probes, the session
/// handshake, and every interval with the deterministic oversized reply.
fn fake_conn(stream: TcpStream) {
    let mut reader = FrameReader::with_max_len(stream.try_clone().unwrap(), RAISED);
    let mut writer = stream;
    while let Ok(frame) = reader.read_frame() {
        let out = match frame {
            Frame::MetricsDump => Frame::MetricsReply {
                json: r#"{"metrics":{"slo.queue_depth":0}}"#.into(),
            },
            Frame::Hello { .. } => Frame::Welcome {
                session: 1,
                deadline_ms: 500,
                resume_token: None,
                resumed: Some(false),
                resume_seq: None,
                codec: None,
            },
            Frame::Interval {
                seq,
                update,
                trace_id,
            } => Frame::Imputed {
                seq,
                port: update.port,
                series: big_series(seq),
                level: "full".into(),
                enforced: true,
                latency_us: 7,
                trace_id,
            },
            Frame::Bye => {
                let bye = Frame::ByeAck {
                    answered: 0,
                    remaining: 0,
                };
                if let Ok(b) = encode_frame_capped(&bye, RAISED) {
                    let _ = write_bytes(&mut writer, &b);
                }
                return;
            }
            _ => continue,
        };
        let Ok(b) = encode_frame_capped(&out, RAISED) else {
            return;
        };
        if write_bytes(&mut writer, &b).is_err() {
            return;
        }
    }
}

struct FakeBackend {
    addr: std::net::SocketAddr,
    stop: Arc<AtomicBool>,
    conns: Arc<Mutex<Vec<TcpStream>>>,
    accept: Option<std::thread::JoinHandle<()>>,
}

impl FakeBackend {
    fn spawn() -> FakeBackend {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        listener.set_nonblocking(true).unwrap();
        let stop = Arc::new(AtomicBool::new(false));
        let conns: Arc<Mutex<Vec<TcpStream>>> = Arc::new(Mutex::new(Vec::new()));
        let accept = {
            let stop = Arc::clone(&stop);
            let conns = Arc::clone(&conns);
            std::thread::spawn(move || loop {
                if stop.load(Ordering::Relaxed) {
                    return;
                }
                match listener.accept() {
                    Ok((s, _)) => {
                        s.set_nonblocking(false).unwrap();
                        s.set_nodelay(true).unwrap();
                        conns.lock().unwrap().push(s.try_clone().unwrap());
                        std::thread::spawn(move || fake_conn(s));
                    }
                    Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                        std::thread::sleep(Duration::from_millis(2));
                    }
                    Err(_) => return,
                }
            })
        };
        FakeBackend {
            addr,
            stop,
            conns,
            accept: Some(accept),
        }
    }

    /// Hard kill: stop accepting and sever every live connection, so the
    /// router sees link death exactly as with a crashed process.
    fn kill(mut self) {
        self.stop.store(true, Ordering::Relaxed);
        for c in self.conns.lock().unwrap().drain(..) {
            let _ = c.shutdown(Shutdown::Both);
        }
        if let Some(h) = self.accept.take() {
            let _ = h.join();
        }
    }
}

/// Regression for the raised-cap forwarder bug: interval updates and
/// replies **larger than the default frame cap** must cross the router
/// intact — including the migration warm-up replay, which re-sends the
/// whole ingested window over a fresh backend link. The old forwarder
/// round-tripped frames through default-cap `encode_frame`, so exactly
/// these frames were silently dropped at the re-encode.
#[test]
fn raised_cap_migration_replays_oversized_frames() {
    // Prove the fixtures really exceed the stock cap: default-cap
    // encoding must reject them, the raised cap must accept them.
    let probe = Frame::Interval {
        seq: 1,
        update: big_update(1),
        trace_id: None,
    };
    assert!(matches!(
        encode_frame(&probe),
        Err(WireError::Oversized { .. })
    ));
    assert!(encode_frame_capped(&probe, RAISED).is_ok());
    let reply_probe = Frame::Imputed {
        seq: 1,
        port: 1,
        series: big_series(1),
        level: "full".into(),
        enforced: true,
        latency_us: 7,
        trace_id: None,
    };
    assert!(matches!(
        encode_frame(&reply_probe),
        Err(WireError::Oversized { .. })
    ));

    let a = FakeBackend::spawn();
    let rt = fmml_cluster::spawn(RouterConfig {
        probe_interval: Duration::from_millis(50),
        probe_failures: 2,
        dial_timeout: Duration::from_millis(500),
        client_frame_len: RAISED,
        backend_frame_len: RAISED,
        ..RouterConfig::default()
    })
    .expect("spawn router");
    rt.add_backend(
        "a",
        TcpConnector {
            addr: a.addr.to_string(),
        },
    );

    let stream = TcpStream::connect(rt.addr()).expect("connect");
    stream.set_nodelay(true).unwrap();
    let mut rx = FrameReader::with_max_len(stream.try_clone().unwrap(), RAISED);
    let mut tx = stream;

    write_frame(&mut tx, &hello(1, 4)).unwrap();
    assert!(matches!(rx.read_frame().unwrap(), Frame::Welcome { .. }));

    fn send(tx: &mut TcpStream, seq: u64) {
        let f = Frame::Interval {
            seq,
            update: big_update(seq),
            trace_id: Some(seq),
        };
        let b = encode_frame_capped(&f, RAISED).expect("raised-cap encode");
        write_bytes(tx, &b).expect("send oversized interval");
    }
    fn expect_reply(rx: &mut FrameReader<TcpStream>, seq: u64) {
        match rx.read_frame().expect("reply") {
            Frame::Imputed {
                seq: s,
                series,
                level,
                enforced,
                ..
            } => {
                assert_eq!(s, seq);
                assert_eq!(series, big_series(seq), "series mangled at seq={seq}");
                assert_eq!(level, "full");
                assert!(enforced);
            }
            other => panic!("expected Imputed at seq={seq}, got {other:?}"),
        }
    }

    for seq in 1..=3u64 {
        send(&mut tx, seq);
        expect_reply(&mut rx, seq);
    }

    // Fail "a" over to "b": the warm-up replay pushes three >1 MiB
    // interval frames through the new backend link before the live
    // stream resumes.
    let b = FakeBackend::spawn();
    rt.add_backend(
        "b",
        TcpConnector {
            addr: b.addr.to_string(),
        },
    );
    a.kill();

    for seq in 4..=6u64 {
        send(&mut tx, seq);
        expect_reply(&mut rx, seq);
    }

    write_frame(&mut tx, &Frame::Bye).unwrap();
    match rx.read_frame().unwrap() {
        Frame::ByeAck {
            answered,
            remaining,
        } => {
            assert_eq!(answered, 6);
            assert_eq!(remaining, 0);
        }
        other => panic!("expected ByeAck, got {other:?}"),
    }
    let (migrations, _resumes, _replayed) = rt.cluster_stats();
    assert!(migrations >= 1, "the kill must have forced a migration");
    rt.shutdown();
    b.kill();
}

/// A bin1-negotiated session through the router: the client advertises,
/// the router (preferring bin1) upgrades both hops, and every reply —
/// forwarded verbatim, before and after a backend kill — arrives on the
/// binary wire **bitwise identical** to the offline enforcement path.
#[test]
fn bin1_negotiated_session_survives_migration_bitwise() {
    let model = model();
    let ws = windows();
    let w = &ws[0];
    let rt = fmml_cluster::spawn(RouterConfig {
        probe_interval: Duration::from_millis(50),
        probe_failures: 2,
        dial_timeout: Duration::from_millis(500),
        wire: WireCodec::Bin1,
        ..RouterConfig::default()
    })
    .expect("spawn router");
    let bin_backend = || {
        spawn(
            Arc::clone(&model),
            ServerConfig {
                workers: 1,
                deadline: Duration::from_millis(500),
                wire: WireCodec::Bin1,
                ..ServerConfig::default()
            },
        )
        .expect("spawn backend")
    };
    let a = bin_backend();
    rt.add_backend(
        "a",
        TcpConnector {
            addr: a.addr().to_string(),
        },
    );

    let (mut tx, mut rx) = connect(rt.addr());
    let hi = Frame::Hello {
        tenant: "test".into(),
        ports: vec![w.port],
        queues: w.num_queues(),
        interval_len: INTERVAL_LEN,
        window_intervals: WINDOW_INTERVALS,
        resume_token: None,
        last_acked: None,
        codecs: Some(WireCodec::advertise()),
    };
    write_frame(&mut tx, &hi).unwrap();
    let raw = rx.poll_frame_raw().expect("welcome").expect("welcome");
    assert_eq!(raw.codec(), WireCodec::Json, "Welcome must travel as JSON");
    match raw.decode().unwrap() {
        Frame::Welcome { codec, .. } => assert_eq!(codec.as_deref(), Some("bin1")),
        other => panic!("expected Welcome, got {other:?}"),
    }

    let mut reference = offline(&model, w);
    let total = w.intervals();
    assert!(total >= 6, "fixture too small to split around a kill");
    let split = total / 2;
    let push = |tx: &mut TcpStream,
                rx: &mut FrameReader<TcpStream>,
                reference: &mut StreamingImputer<Arc<TransformerImputer>>,
                k: usize,
                seq: u64| {
        let u = IntervalUpdate::from_window(w, k);
        let expect = reference.try_push(u.clone()).unwrap();
        write_frame_with(
            tx,
            &Frame::Interval {
                seq,
                update: u,
                trace_id: Some(seq),
            },
            WireCodec::Bin1,
        )
        .unwrap();
        let raw = loop {
            if let Some(r) = rx.poll_frame_raw().expect("reply") {
                break r;
            }
        };
        assert_eq!(
            raw.codec(),
            WireCodec::Bin1,
            "negotiated replies must ride the binary wire (seq={seq})"
        );
        check_reply(raw.decode().unwrap(), expect, w, seq, k);
    };

    for (k, seq) in (0..split).zip(1u64..) {
        push(&mut tx, &mut rx, &mut reference, k, seq);
    }

    let b = bin_backend();
    rt.add_backend(
        "b",
        TcpConnector {
            addr: b.addr().to_string(),
        },
    );
    a.shutdown();

    for (k, seq) in (split..total).zip(split as u64 + 1..) {
        push(&mut tx, &mut rx, &mut reference, k, seq);
    }

    write_frame_with(&mut tx, &Frame::Bye, WireCodec::Bin1).unwrap();
    match rx.read_frame().unwrap() {
        Frame::ByeAck {
            answered,
            remaining,
        } => {
            assert_eq!(answered, total as u64);
            assert_eq!(remaining, 0);
        }
        other => panic!("expected ByeAck, got {other:?}"),
    }
    let (migrations, _resumes, _replayed) = rt.cluster_stats();
    assert!(migrations >= 1, "the kill must have forced a migration");
    rt.shutdown();
    b.shutdown();
}
