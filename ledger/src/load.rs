//! Open-loop load: each switch is one session on one connection, driven
//! by one thread that sends its port-intervals on a fixed schedule
//! whether or not replies keep up, and reads replies between sends.
//!
//! Latency is timed from each interval's *due* time, so a stall also
//! charges the wait it imposes on the intervals due after it. The
//! generator records how late it sent each interval.

use crate::workload::{Workload, DEADLINE_MS};
use fmml_core::streaming::IntervalUpdate;
use fmml_fm::WindowConstraints;
use fmml_serve::protocol::{encode_frame_with, write_bytes, Frame, FrameReader, WireCodec};
use fmml_telemetry::PortWindow;
use std::collections::HashMap;
use std::net::TcpStream;
use std::sync::{Barrier, Mutex};
use std::time::{Duration, Instant};

/// How long a phase waits for its outstanding replies after its last
/// send; anything still unanswered then is counted lost.
pub const DRAIN_CAP: Duration = Duration::from_secs(5);

/// One switch's telemetry: the ports it announces, its intervals in
/// send order (period by period, port by port), and the telemetry
/// windows they were cut from.
#[derive(Debug, Clone)]
pub struct SwitchStream {
    pub switch: usize,
    pub ports: Vec<usize>,
    pub updates: Vec<IntervalUpdate>,
    pub windows: Vec<PortWindow>,
}

/// What became of one attempted interval.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Outcome {
    Pending,
    /// `Imputed`, `ms` after its due time.
    Answered {
        ms: f64,
    },
    /// Warm-up `Ack` (window not yet full).
    Acked,
    Busy,
    Rejected,
    Error,
    Lost,
    Unsent,
}

impl Outcome {
    pub fn failed(self) -> bool {
        matches!(
            self,
            Outcome::Busy | Outcome::Rejected | Outcome::Error | Outcome::Lost | Outcome::Unsent
        )
    }

    /// Did the server take the interval into its sliding window?
    pub fn ingested(self) -> bool {
        !matches!(self, Outcome::Busy | Outcome::Rejected | Outcome::Unsent)
    }
}

/// One attempted interval.
#[derive(Debug, Clone)]
pub struct Attempt {
    pub seq: u64,
    /// Index into the switch's `updates`.
    pub update: usize,
    pub phase: usize,
    pub due: Instant,
    pub late_ms: f64,
    pub outcome: Outcome,
}

/// A served `Imputed` reply, kept for the correctness checks.
#[derive(Debug, Clone)]
pub struct Served {
    pub seq: u64,
    pub port: usize,
    pub series: Vec<Vec<u32>>,
    pub level: String,
    pub enforced: bool,
}

/// One switch's client: its connection and everything it observed.
pub struct SwitchClient<'a> {
    pub stream: &'a SwitchStream,
    conn: TcpStream,
    reader: FrameReader<TcpStream>,
    codec: WireCodec,
    next_update: usize,
    next_seq: u64,
    pending: HashMap<u64, usize>,
    pub attempts: Vec<Attempt>,
    pub served: Vec<Served>,
    /// Replies that broke their interval's constraints.
    pub violations: u64,
    pub server_errors: u64,
    dead: bool,
    /// Test hook: flip one value of the next `Imputed` reply.
    pub corrupt_next: bool,
}

impl<'a> SwitchClient<'a> {
    /// Connect and handshake: one `Hello` listing all the switch's ports.
    pub fn connect(
        addr: &str,
        wl: &Workload,
        stream: &'a SwitchStream,
        tenant: &str,
    ) -> Result<SwitchClient<'a>, String> {
        let conn = TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
        let _ = conn.set_nodelay(true);
        conn.set_nonblocking(true).map_err(|e| e.to_string())?;
        let reader = FrameReader::new(conn.try_clone().map_err(|e| e.to_string())?);
        let mut client = SwitchClient {
            stream,
            conn,
            reader,
            codec: WireCodec::Json,
            next_update: 0,
            next_seq: 1,
            pending: HashMap::new(),
            attempts: Vec::new(),
            served: Vec::new(),
            violations: 0,
            server_errors: 0,
            dead: false,
            corrupt_next: false,
        };
        let hello = Frame::Hello {
            tenant: tenant.to_string(),
            ports: stream.ports.clone(),
            queues: wl.queues(),
            interval_len: wl.interval_len,
            window_intervals: wl.window_intervals,
            resume_token: None,
            last_acked: None,
            codecs: (wl.codec != WireCodec::Json).then(WireCodec::advertise),
        };
        client.send_frame(&hello, WireCodec::Json)?;
        let until = Instant::now() + Duration::from_secs(5);
        let welcome = loop {
            match client.reader.poll_frame() {
                Ok(None) if Instant::now() < until => crate::wait::readable(
                    &client.conn,
                    until.saturating_duration_since(Instant::now()),
                ),
                other => break other,
            }
        };
        match welcome {
            Ok(Some(Frame::Welcome { codec, .. })) => {
                client.codec = codec
                    .as_deref()
                    .and_then(WireCodec::parse)
                    .unwrap_or(WireCodec::Json);
            }
            other => return Err(format!("handshake failed: {other:?}")),
        }
        if client.codec != wl.codec {
            return Err(format!(
                "negotiated codec {} instead of {}",
                client.codec, wl.codec
            ));
        }
        Ok(client)
    }

    fn send_frame(&mut self, frame: &Frame, codec: WireCodec) -> Result<(), String> {
        let bytes = encode_frame_with(frame, codec, fmml_serve::MAX_FRAME_LEN)
            .map_err(|e| e.to_string())?;
        // Writes block (a full socket buffer is backpressure, charged to
        // the intervals it delays); reads stay non-blocking.
        self.conn
            .set_nonblocking(false)
            .map_err(|e| e.to_string())?;
        let sent = write_bytes(&mut self.conn, &bytes).map_err(|e| e.to_string());
        self.conn.set_nonblocking(true).map_err(|e| e.to_string())?;
        sent
    }

    /// Send the next interval of the stream, due at `due`.
    fn send_next(&mut self, phase: usize, due: Instant) {
        let now = Instant::now();
        let late_ms = now.saturating_duration_since(due).as_secs_f64() * 1e3;
        let seq = self.next_seq;
        let update = self.next_update;
        let outcome = if self.dead || update >= self.stream.updates.len() {
            Outcome::Unsent
        } else {
            self.next_seq += 1;
            self.next_update += 1;
            let frame = Frame::Interval {
                seq,
                update: self.stream.updates[update].clone(),
                trace_id: None,
            };
            match self.send_frame(&frame, self.codec) {
                Ok(()) => {
                    self.pending.insert(seq, self.attempts.len());
                    Outcome::Pending
                }
                Err(_) => {
                    self.dead = true;
                    Outcome::Lost
                }
            }
        };
        self.attempts.push(Attempt {
            seq,
            update,
            phase,
            due,
            late_ms,
            outcome,
        });
    }

    /// Read and account replies until `until`, or (with `drain`) until
    /// nothing is outstanding.
    fn pump(&mut self, until: Instant, drain: bool) {
        loop {
            loop {
                match self.reader.poll_frame() {
                    Ok(Some(frame)) => self.on_frame(frame),
                    Ok(None) => break,
                    Err(_) => {
                        self.dead = true;
                        break;
                    }
                }
            }
            let now = Instant::now();
            if self.dead || (drain && self.pending.is_empty()) || now >= until {
                return;
            }
            crate::wait::readable(&self.conn, until - now);
        }
    }

    fn settle(&mut self, seq: u64, outcome: Outcome) -> Option<usize> {
        let idx = self.pending.remove(&seq)?;
        self.attempts[idx].outcome = outcome;
        Some(idx)
    }

    fn on_frame(&mut self, frame: Frame) {
        let now = Instant::now();
        match frame {
            Frame::Imputed {
                seq,
                port,
                mut series,
                level,
                enforced,
                ..
            } => {
                let Some(&idx) = self.pending.get(&seq) else {
                    return;
                };
                let ms = now
                    .saturating_duration_since(self.attempts[idx].due)
                    .as_secs_f64()
                    * 1e3;
                self.settle(seq, Outcome::Answered { ms });
                if self.corrupt_next {
                    if let Some(v) = series.iter_mut().flatten().next() {
                        *v ^= 1;
                    }
                    self.corrupt_next = false;
                }
                let update = &self.stream.updates[self.attempts[idx].update];
                if port != update.port || (enforced && !interval_satisfied(update, &series)) {
                    self.violations += 1;
                }
                self.served.push(Served {
                    seq,
                    port,
                    series,
                    level,
                    enforced,
                });
            }
            Frame::Ack { seq, .. } => {
                self.settle(seq, Outcome::Acked);
            }
            Frame::Busy { seq, .. } => {
                self.settle(seq, Outcome::Busy);
            }
            Frame::Reject { seq, .. } => {
                self.settle(seq, Outcome::Rejected);
            }
            Frame::Error { .. } => {
                // Fatal for the session: nothing outstanding will be
                // answered.
                self.server_errors += 1;
                self.dead = true;
                for idx in std::mem::take(&mut self.pending).into_values() {
                    self.attempts[idx].outcome = Outcome::Error;
                }
            }
            _ => {}
        }
    }

    /// Warm-up: fill every port's sliding window and push one full window
    /// per port through, unpaced, then wait for every reply.
    pub fn warm_up(&mut self, wl: &Workload) -> Result<(), String> {
        let n = wl.window_intervals * self.stream.ports.len();
        for _ in 0..n {
            self.send_next(usize::MAX, Instant::now());
        }
        self.pump(Instant::now() + DRAIN_CAP, true);
        if !self.pending.is_empty() || self.dead {
            return Err(format!(
                "switch {} warm-up left {} replies outstanding",
                self.stream.switch,
                self.pending.len()
            ));
        }
        Ok(())
    }

    /// Record an interval of the schedule that was never sent.
    fn skip(&mut self, phase: usize, due: Instant) {
        self.attempts.push(Attempt {
            seq: self.next_seq,
            update: self.next_update,
            phase,
            due,
            late_ms: 0.0,
            outcome: Outcome::Unsent,
        });
    }

    /// Run one open-loop phase: `rate` intervals per second from this
    /// switch, starting at `t0 + offset`, for `dur`. Sending stops early
    /// once more than `backlog_limit` replies are outstanding (the rung
    /// is then failing anyway); every interval of the schedule left
    /// unsent is recorded as an `Unsent` attempt. Returns whether it
    /// stopped early.
    pub fn run_phase(
        &mut self,
        phase: usize,
        rate: f64,
        t0: Instant,
        offset: Duration,
        dur: Duration,
        backlog_limit: usize,
    ) -> bool {
        let n = (rate * dur.as_secs_f64()).round() as usize;
        let period = 1.0 / rate;
        let mut aborted = false;
        let mut last_due = t0;
        for i in 0..n {
            let due = t0 + offset + Duration::from_secs_f64(i as f64 * period);
            if aborted {
                self.skip(phase, due);
                continue;
            }
            self.pump(due, false);
            if self.pending.len() > backlog_limit {
                aborted = true;
                self.skip(phase, due);
                continue;
            }
            self.send_next(phase, due);
            last_due = due;
        }
        self.pump(last_due + DRAIN_CAP, true);
        for idx in std::mem::take(&mut self.pending).into_values() {
            self.attempts[idx].outcome = Outcome::Lost;
        }
        aborted
    }

    /// End the session with `Bye` and hand back what this switch saw.
    pub fn bye(mut self) -> ClientLog {
        let _ = self.send_frame(&Frame::Bye, self.codec);
        let until = Instant::now() + Duration::from_secs(2);
        while !self.dead && Instant::now() < until {
            match self.reader.poll_frame() {
                Ok(Some(Frame::ByeAck { .. })) | Err(_) => break,
                Ok(Some(f)) => self.on_frame(f),
                Ok(None) => crate::wait::readable(
                    &self.conn,
                    until.saturating_duration_since(Instant::now()),
                ),
            }
        }
        ClientLog {
            attempts: self.attempts,
            served: self.served,
            violations: self.violations,
            server_errors: self.server_errors,
        }
    }
}

/// Everything one switch observed, after its session ended.
#[derive(Debug, Default)]
pub struct ClientLog {
    pub attempts: Vec<Attempt>,
    pub served: Vec<Served>,
    pub violations: u64,
    pub server_errors: u64,
}

/// Does one imputed interval satisfy its own measurements (C1-C3)?
pub fn interval_satisfied(u: &IntervalUpdate, series: &[Vec<u32>]) -> bool {
    let len = series.first().map_or(0, Vec::len);
    if len < 2 || series.len() != u.maxes.len() || series.iter().any(|q| q.len() != len) {
        return false;
    }
    let wc = WindowConstraints {
        interval_len: len,
        len,
        maxes: u.maxes.iter().map(|&m| vec![m]).collect(),
        samples: u.samples.iter().map(|&s| vec![s]).collect(),
        sent: vec![u.sent],
    };
    wc.satisfied_exact(series)
}

/// One phase of the schedule, offered as a total rate over all switches.
#[derive(Debug, Clone)]
pub struct PhaseSpec {
    pub name: String,
    pub rate_ips: f64,
    pub dur: Duration,
    /// Ladder rungs run only while every rung before them passed.
    pub ladder: bool,
}

/// The merged result of one phase over all switches.
#[derive(Debug, Clone, Default)]
pub struct PhaseResult {
    pub name: String,
    pub rate_ips: f64,
    /// From the phase's first due time to its last reply.
    pub first_due: Option<Instant>,
    pub last_reply: Option<Instant>,
    pub attempted: usize,
    pub failed: usize,
    /// Answered latencies (ms from due time), ascending.
    pub latencies: Vec<f64>,
    pub within_deadline: usize,
    pub stopped_early: bool,
    /// How late the generator sent each interval (ms after its due time).
    pub late_ms: Vec<f64>,
}

impl PhaseResult {
    /// Latency percentile with every failed interval counted as missing
    /// any limit (ranked above all answered ones, at `DRAIN_CAP`).
    pub fn pct(&self, q: f64) -> f64 {
        let mut all = self.latencies.clone();
        all.extend(std::iter::repeat_n(
            DRAIN_CAP.as_secs_f64() * 1e3,
            self.attempted - self.latencies.len(),
        ));
        crate::stats::quantile(&all, q)
    }

    pub fn goodput_share(&self) -> f64 {
        self.within_deadline as f64 / self.attempted.max(1) as f64
    }

    /// Intervals answered within the limit per second, from the phase's
    /// first due time to its last reply.
    pub fn goodput_ips(&self) -> f64 {
        match (self.first_due, self.last_reply) {
            (Some(a), Some(b)) if b > a => self.within_deadline as f64 / (b - a).as_secs_f64(),
            _ => 0.0,
        }
    }

    /// A ladder rung passes with p99 within the limit, at most 1% failed,
    /// and no growing backlog.
    pub fn passes(&self) -> bool {
        self.attempted > 0
            && !self.stopped_early
            && self.pct(0.99) <= DEADLINE_MS
            && self.failed as f64 <= 0.01 * self.attempted as f64
    }
}

/// Lock-step control of the switch threads: every phase starts on all
/// switches at one instant, and the ladder stops at its first failed
/// rung.
pub struct Controller {
    barrier: Barrier,
    plan: Vec<PhaseSpec>,
    state: Mutex<CtlState>,
}

#[derive(Default)]
struct CtlState {
    next: usize,
    t0: Option<Instant>,
    stop: bool,
    partial: Vec<PhaseResult>,
    results: Vec<PhaseResult>,
}

impl Controller {
    pub fn new(switches: usize, plan: Vec<PhaseSpec>) -> Controller {
        Controller {
            barrier: Barrier::new(switches),
            plan,
            state: Mutex::new(CtlState::default()),
        }
    }

    /// Drive one switch through the plan; every switch thread calls this.
    pub fn drive(&self, client: &mut SwitchClient, switches: usize) {
        loop {
            if self.barrier.wait().is_leader() {
                let mut st = self.state.lock().expect("controller lock");
                st.t0 = Some(Instant::now() + Duration::from_millis(20));
            }
            self.barrier.wait();
            let (phase, t0) = {
                let st = self.state.lock().expect("controller lock");
                if st.stop || st.next >= self.plan.len() {
                    return;
                }
                (st.next, st.t0.expect("phase start"))
            };
            let spec = &self.plan[phase];
            let rate = spec.rate_ips / switches as f64;
            // Stagger the switches evenly within one send period.
            let offset = Duration::from_secs_f64(client.stream.switch as f64 / spec.rate_ips);
            let backlog = backlog_limit(spec, rate);
            let first = client.attempts.len();
            let stopped = client.run_phase(phase, rate, t0, offset, spec.dur, backlog);
            let mine = summarize(&client.attempts[first..], spec, stopped);
            let leader = {
                let mut st = self.state.lock().expect("controller lock");
                st.partial.push(mine);
                st.partial.len() == switches
            };
            if leader {
                let mut st = self.state.lock().expect("controller lock");
                let merged = merge(std::mem::take(&mut st.partial));
                let failed_rung = spec.ladder && !merged.passes();
                st.results.push(merged);
                st.next += 1;
                st.stop = failed_rung;
            }
            self.barrier.wait();
        }
    }

    pub fn results(self) -> Vec<PhaseResult> {
        self.state.into_inner().expect("controller lock").results
    }
}

/// Outstanding replies per switch past which a phase stops sending.
/// Only ladder rungs stop: more than two limits' worth of work queued
/// means the backlog is growing and the rung has failed. Measured phases
/// stay open-loop whatever the backlog.
fn backlog_limit(spec: &PhaseSpec, rate: f64) -> usize {
    if spec.ladder {
        ((rate * 2.0 * DEADLINE_MS / 1e3).ceil() as usize).max(4)
    } else {
        usize::MAX
    }
}

fn summarize(attempts: &[Attempt], spec: &PhaseSpec, stopped: bool) -> PhaseResult {
    let mut r = PhaseResult {
        name: spec.name.clone(),
        rate_ips: spec.rate_ips,
        first_due: attempts.iter().map(|a| a.due).min(),
        stopped_early: stopped,
        ..PhaseResult::default()
    };
    for a in attempts {
        r.attempted += 1;
        if a.outcome != Outcome::Unsent {
            r.late_ms.push(a.late_ms);
        }
        match a.outcome {
            Outcome::Answered { ms } => {
                let at = a.due + Duration::from_secs_f64(ms / 1e3);
                r.last_reply = r.last_reply.max(Some(at));
                r.latencies.push(ms);
                if ms <= DEADLINE_MS {
                    r.within_deadline += 1;
                }
            }
            o if o.failed() => r.failed += 1,
            _ => {}
        }
    }
    r
}

/// Pool the results of several phases (or of one phase's switches).
pub fn merge(parts: Vec<PhaseResult>) -> PhaseResult {
    let mut it = parts.into_iter();
    let mut m = it.next().unwrap_or_default();
    for p in it {
        m.first_due = [m.first_due, p.first_due].into_iter().flatten().min();
        m.last_reply = m.last_reply.max(p.last_reply);
        m.attempted += p.attempted;
        m.failed += p.failed;
        m.latencies.extend(p.latencies);
        m.late_ms.extend(p.late_ms);
        m.within_deadline += p.within_deadline;
        m.stopped_early |= p.stopped_early;
    }
    m.latencies.sort_by(f64::total_cmp);
    m
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn failed_intervals_rank_above_every_answer() {
        let r = PhaseResult {
            attempted: 100,
            failed: 2,
            latencies: (1..=98).map(f64::from).collect(),
            ..PhaseResult::default()
        };
        assert_eq!(r.pct(0.5), 50.0);
        assert_eq!(r.pct(0.99), DRAIN_CAP.as_secs_f64() * 1e3);
        assert!(!r.passes());
    }

    #[test]
    fn only_ladder_rungs_stop_on_backlog() {
        let spec = |ladder| PhaseSpec {
            name: "p".into(),
            rate_ips: 100.0,
            dur: Duration::from_secs(1),
            ladder,
        };
        assert_eq!(backlog_limit(&spec(false), 100.0), usize::MAX);
        assert_eq!(backlog_limit(&spec(true), 100.0), 10);
    }

    #[test]
    fn unsent_intervals_of_a_stopped_phase_count_as_failed() {
        let t0 = Instant::now();
        let attempt = |seq, outcome| Attempt {
            seq,
            update: seq as usize,
            phase: 0,
            due: t0,
            late_ms: 0.5,
            outcome,
        };
        let attempts = vec![
            attempt(1, Outcome::Answered { ms: 10.0 }),
            attempt(2, Outcome::Answered { ms: 80.0 }),
            attempt(3, Outcome::Unsent),
            attempt(4, Outcome::Unsent),
        ];
        let spec = PhaseSpec {
            name: "rung.1".into(),
            rate_ips: 4.0,
            dur: Duration::from_secs(1),
            ladder: true,
        };
        let r = summarize(&attempts, &spec, true);
        assert_eq!((r.attempted, r.failed, r.within_deadline), (4, 2, 1));
        assert_eq!(r.goodput_share(), 0.25);
        assert_eq!(r.late_ms.len(), 2, "unsent intervals have no lateness");
        assert!(!r.passes());
    }

    #[test]
    fn constraint_check_catches_a_flipped_value() {
        let u = IntervalUpdate {
            port: 0,
            samples: vec![2],
            maxes: vec![3],
            sent: 4,
            dropped: 0,
            received: 4,
        };
        let good = vec![vec![0, 3, 1, 2]];
        assert!(interval_satisfied(&u, &good));
        let mut bad = good.clone();
        bad[0][1] ^= 1;
        assert!(!interval_satisfied(&u, &bad));
    }
}
