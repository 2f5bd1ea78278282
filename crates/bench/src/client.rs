//! The lockstep session client the serving suites share: connect,
//! `Hello` (optionally advertising a codec or resuming a token), then
//! one `Interval` out and its reply back at a time, and `Bye`/`ByeAck`
//! at the end. Every protocol surprise panics, so a suite fails loud.

use fmml_core::streaming::IntervalUpdate;
use fmml_fm::cem::hash_u32_series;
use fmml_serve::protocol::{write_frame_with, Frame, FrameReader, WireCodec};
use std::collections::BTreeMap;
use std::net::{SocketAddr, TcpStream};

/// What a lockstep session announces in its `Hello`.
#[derive(Debug, Clone)]
pub struct SessionSpec {
    pub tenant: &'static str,
    pub port: usize,
    pub queues: usize,
    pub interval_len: usize,
    pub window_intervals: usize,
    /// The codec to advertise; `Json` advertises nothing.
    pub codec: WireCodec,
}

/// One connected session over loopback TCP.
pub struct Session {
    tx: TcpStream,
    rx: FrameReader<TcpStream>,
    codec: WireCodec,
}

impl Session {
    /// Connect to `addr` and say `Hello`, resuming `(token, last_acked)`
    /// when given. Returns the session, speaking the codec the `Welcome`
    /// picked, and the `Welcome` itself.
    pub fn open(
        addr: SocketAddr,
        spec: &SessionSpec,
        resume: Option<(&str, u64)>,
    ) -> (Session, Frame) {
        let stream = TcpStream::connect(addr).expect("connect bench client");
        stream.set_nodelay(true).expect("nodelay");
        let rx = FrameReader::new(stream.try_clone().expect("clone"));
        // The Hello always travels JSON; `codecs` is the advertisement.
        let mut session = Session {
            tx: stream,
            rx,
            codec: WireCodec::Json,
        };
        session.write(&Frame::Hello {
            tenant: spec.tenant.into(),
            ports: vec![spec.port],
            queues: spec.queues,
            interval_len: spec.interval_len,
            window_intervals: spec.window_intervals,
            resume_token: resume.map(|(t, _)| t.to_string()),
            last_acked: resume.map(|(_, a)| a),
            codecs: (spec.codec == WireCodec::Bin1).then(WireCodec::advertise),
        });
        let welcome = session.rx.read_frame().expect("welcome");
        let Frame::Welcome { codec, .. } = &welcome else {
            panic!("expected Welcome, got {welcome:?}");
        };
        session.codec = codec
            .as_deref()
            .and_then(WireCodec::parse)
            .unwrap_or_default();
        (session, welcome)
    }

    /// The codec the server picked for this session.
    pub fn codec(&self) -> WireCodec {
        self.codec
    }

    fn write(&mut self, frame: &Frame) {
        write_frame_with(&mut self.tx, frame, self.codec).expect("send frame");
    }

    /// Send interval `seq` without waiting for its reply.
    pub fn send(&mut self, seq: u64, update: &IntervalUpdate) {
        self.write(&Frame::Interval {
            seq,
            update: update.clone(),
            trace_id: None,
        });
    }

    /// Read the next reply, which must answer `seq` (`Ack` or `Imputed`).
    pub fn reply(&mut self, seq: u64) -> Frame {
        let reply = self.rx.read_frame().expect("reply");
        match &reply {
            Frame::Ack { seq: s, .. } | Frame::Imputed { seq: s, .. } => assert_eq!(*s, seq),
            other => panic!("unexpected reply {other:?}"),
        }
        reply
    }

    /// Send interval `seq` and await its reply.
    pub fn step(&mut self, seq: u64, update: &IntervalUpdate) -> Frame {
        self.send(seq, update);
        self.reply(seq)
    }

    /// Say `Bye`; returns the `ByeAck`'s answered count after asserting
    /// the drain completed.
    pub fn bye(mut self) -> u64 {
        self.write(&Frame::Bye);
        match self.rx.read_frame().expect("byeack") {
            Frame::ByeAck {
                answered,
                remaining,
            } => {
                assert_eq!(remaining, 0, "drain timed out");
                answered
            }
            other => panic!("expected ByeAck, got {other:?}"),
        }
    }
}

/// The imputed series a run received, by seq.
#[derive(Debug, Default)]
pub struct Replies(BTreeMap<u64, Vec<Vec<u32>>>);

impl Replies {
    /// Keep an `Imputed` reply's series (an `Ack` carries none). A seq
    /// answered twice must carry the same series both times.
    pub fn record(&mut self, reply: Frame) {
        if let Frame::Imputed { seq, series, .. } = reply {
            if let Some(prev) = self.0.insert(seq, series) {
                assert_eq!(
                    Some(&prev),
                    self.0.get(&seq),
                    "duplicate reply for seq {seq} diverged"
                );
            }
        }
    }

    /// Distinct seqs answered with a series.
    pub fn answered(&self) -> usize {
        self.0.len()
    }

    /// Order-sensitive FNV fingerprint: every series flattened in seq
    /// order; per-series hashing keeps shape boundaries from colliding.
    pub fn fingerprint(&self) -> u64 {
        let flat: Vec<Vec<u32>> = self.0.values().flatten().cloned().collect();
        hash_u32_series(&flat)
    }
}
