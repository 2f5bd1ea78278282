//! Deterministic in-memory transport for simulation testing.
//!
//! [`SimNet`] is a process-local "network": [`SimConnector::connect`]
//! creates an in-memory duplex connection and hands the server half to
//! [`SimTransport::accept`]. Each direction of each connection applies
//! seeded faults **per wire frame**: drop, duplication, adjacent
//! reordering, virtual-time delay, and mid-write disconnect.
//!
//! ## Why fault decisions are content-keyed
//!
//! A naive "fault every Nth write" scheme is not reproducible: the
//! relative order of writes on one pipe can race benignly (the reader
//! thread's `Ack` vs the worker pool's `Imputed`), so the Nth write is
//! a different frame on different runs of the same seed. Instead, each
//! complete frame's fate is a pure function of
//! `(net seed, connection id, direction, FNV(frame bytes), occurrence)`
//! where `occurrence` counts prior identical frames on that pipe.
//! Identical frames are interchangeable, so the decision sequence is
//! invariant under benign write interleavings — the *same frames* are
//! dropped/duplicated/delayed on every run with the same seed, which is
//! what lets the schedule explorer replay a failing seed bitwise.
//!
//! Delays are expressed in **virtual time** ([`fmml_obs::Clock`]): a
//! delayed frame is withheld from readers until the driver advances the
//! clock past its release point. Ordering within a pipe is FIFO (a
//! delayed frame holds back later ones, like a single TCP stream), with
//! the one exception of an explicit reorder fault, which swaps a frame
//! with its successor.

use crate::transport::{Accepted, Conn, Connector, Transport};
use fmml_obs::hash::{fnv1a, fnv1a_extend, FNV_OFFSET};
use fmml_obs::Clock;
use std::collections::{HashMap, VecDeque};
use std::io::{self, ErrorKind, Read, Write};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, PoisonError, Weak};
use std::time::{Duration, Instant};

/// Per-frame fault probabilities, in parts per 10 000, applied
/// independently per direction. Disconnect wins over drop wins over
/// dup/reorder/delay (a frame suffers at most one fate).
#[derive(Debug, Clone)]
pub struct FaultProfile {
    pub drop_per_10k: u32,
    pub dup_per_10k: u32,
    pub reorder_per_10k: u32,
    pub delay_per_10k: u32,
    /// Upper bound on an injected delay (virtual time).
    pub max_delay: Duration,
    /// Mid-write disconnect: half the frame is delivered, then the
    /// whole connection dies (both directions).
    pub disconnect_per_10k: u32,
    /// Restrict injected disconnects to client→server writes. The
    /// schedule explorer sets this: a server→client disconnect kills
    /// the duplex at server-write time, which is unordered with respect
    /// to the driver's schedule, whereas client-write kills happen at
    /// deterministic schedule points (see `fmml-simtest`).
    pub disconnect_c2s_only: bool,
    /// Network partition ([`fmml_fault::FaultKind::Partition`]): when a
    /// frame draws this fate, the whole net stalls every frame — in
    /// *both* directions, on *every* connection — until the partition
    /// heals at `now + partition_heal` (virtual time). Stalled frames
    /// deliver, in order, at the heal instant: a stream transport
    /// retransmits below the frame layer, so a partition delays the
    /// stream but never drops its middle while delivering its tail. No
    /// connection-level error is surfaced: the link looks idle, not
    /// dead, so only liveness probes and read timeouts can tell.
    /// Requires a virtual clock; under [`Clock::System`] the fate
    /// degrades to a no-op.
    pub partition_per_10k: u32,
    /// Deterministic heal time of an injected partition (virtual time).
    /// `Duration::ZERO` disables the fate even if `partition_per_10k`
    /// is set.
    pub partition_heal: Duration,
}

impl FaultProfile {
    /// No faults: a perfect in-memory wire.
    pub fn none() -> FaultProfile {
        FaultProfile {
            drop_per_10k: 0,
            dup_per_10k: 0,
            reorder_per_10k: 0,
            delay_per_10k: 0,
            max_delay: Duration::ZERO,
            disconnect_per_10k: 0,
            disconnect_c2s_only: false,
            partition_per_10k: 0,
            partition_heal: Duration::ZERO,
        }
    }

    fn is_none(&self) -> bool {
        self.drop_per_10k == 0
            && self.dup_per_10k == 0
            && self.reorder_per_10k == 0
            && self.delay_per_10k == 0
            && self.disconnect_per_10k == 0
            && self.partition_per_10k == 0
    }
}

/// Ground-truth totals of injected faults (for run reports; the
/// conformance checker never needs them — its invariants are
/// fault-oblivious).
#[derive(Debug, Default, Clone)]
pub struct FaultCounts {
    pub dropped: u64,
    pub duplicated: u64,
    pub reordered: u64,
    pub delayed: u64,
    pub disconnects: u64,
    /// Frames stalled by an active partition (including the frame that
    /// drew the partition fate); they deliver when the partition heals.
    pub partitioned: u64,
}

#[derive(Default)]
struct FaultTallies {
    dropped: AtomicU64,
    duplicated: AtomicU64,
    reordered: AtomicU64,
    delayed: AtomicU64,
    disconnects: AtomicU64,
    partitioned: AtomicU64,
}

/// How long a read blocks (real time) before reporting `WouldBlock`.
/// Deliberately small: under virtual time this is poll granularity,
/// not a semantic timeout.
const DEFAULT_READ_WAIT: Duration = Duration::from_micros(500);

struct NetInner {
    seed: u64,
    clock: Clock,
    profile: Mutex<FaultProfile>,
    accept_q: Mutex<VecDeque<SimConn>>,
    closed: AtomicBool,
    next_conn: AtomicU64,
    tallies: FaultTallies,
    /// Virtual-clock instant the current partition heals; `0` = no
    /// partition has ever been active.
    partition_until_ns: AtomicU64,
    /// Every duplex ever dialed (weak; pruned on kill sweeps), so the
    /// driver can hard-kill all live connections at once.
    conns: Mutex<Vec<Weak<DuplexInner>>>,
}

impl NetInner {
    /// Is a partition blackholing the link right now? Partitions live
    /// on virtual time only; under the system clock this is never true.
    fn partition_active(&self) -> bool {
        let until = self.partition_until_ns.load(Ordering::Acquire);
        if until == 0 {
            return false;
        }
        match &self.clock {
            Clock::Virtual(vc) => vc.now_ns() < until,
            Clock::System => false,
        }
    }

    /// Start (or extend) a partition healing `heal` from virtual now.
    /// No-op under the system clock.
    fn begin_partition(&self, heal: Duration) {
        if let Clock::Virtual(vc) = &self.clock {
            let heal_ns = heal.as_nanos().min(u128::from(u64::MAX)) as u64;
            let until = vc.now_ns().saturating_add(heal_ns);
            self.partition_until_ns.fetch_max(until, Ordering::AcqRel);
        }
    }
}

/// A deterministic in-memory network: one listener, any number of
/// dialed connections, seeded per-frame faults.
#[derive(Clone)]
pub struct SimNet {
    inner: Arc<NetInner>,
}

impl SimNet {
    pub fn new(seed: u64, clock: Clock) -> SimNet {
        SimNet {
            inner: Arc::new(NetInner {
                seed,
                clock,
                profile: Mutex::new(FaultProfile::none()),
                accept_q: Mutex::new(VecDeque::new()),
                closed: AtomicBool::new(false),
                next_conn: AtomicU64::new(0),
                tallies: FaultTallies::default(),
                partition_until_ns: AtomicU64::new(0),
                conns: Mutex::new(Vec::new()),
            }),
        }
    }

    /// The server-side accept handle (pass to `spawn_with`).
    pub fn transport(&self) -> SimTransport {
        SimTransport {
            inner: Arc::clone(&self.inner),
        }
    }

    /// The client-side dial handle.
    pub fn connector(&self) -> SimConnector {
        SimConnector {
            inner: Arc::clone(&self.inner),
        }
    }

    /// Swap the fault profile (e.g. the explorer's final faultless
    /// drain phase). Applies to frames written after the call.
    pub fn set_profile(&self, p: FaultProfile) {
        *self
            .inner
            .profile
            .lock()
            .unwrap_or_else(PoisonError::into_inner) = p;
    }

    /// Totals of injected faults so far.
    pub fn fault_counts(&self) -> FaultCounts {
        let t = &self.inner.tallies;
        FaultCounts {
            dropped: t.dropped.load(Ordering::Relaxed),
            duplicated: t.duplicated.load(Ordering::Relaxed),
            reordered: t.reordered.load(Ordering::Relaxed),
            delayed: t.delayed.load(Ordering::Relaxed),
            disconnects: t.disconnects.load(Ordering::Relaxed),
            partitioned: t.partitioned.load(Ordering::Relaxed),
        }
    }

    /// Driver-controlled partition: stall every frame on this net,
    /// both directions, until `heal` of *virtual* time has passed.
    /// Frames already in flight still deliver; frames written while
    /// partitioned are held and delivered, in order, at the heal
    /// instant. No-op under [`Clock::System`].
    pub fn partition_for(&self, heal: Duration) {
        self.inner.begin_partition(heal);
    }

    /// Whether a partition is stalling the net right now.
    pub fn partitioned(&self) -> bool {
        self.inner.partition_active()
    }

    /// Hard-kill every live connection on this net, both directions —
    /// the far process died. Dials after this get fresh connections,
    /// so a "restarted backend" reuses the same net.
    pub fn kill_all(&self) {
        let mut conns = self
            .inner
            .conns
            .lock()
            .unwrap_or_else(PoisonError::into_inner);
        conns.retain(|w| match w.upgrade() {
            Some(d) => {
                d.kill();
                false
            }
            None => false,
        });
    }

    /// Stop accepting: `accept` reports `Closed`, `connect` fails.
    pub fn close(&self) {
        self.inner.closed.store(true, Ordering::Release);
    }
}

pub struct SimTransport {
    inner: Arc<NetInner>,
}

impl Transport for SimTransport {
    type Conn = SimConn;

    fn accept(&self) -> Accepted<SimConn> {
        let popped = self
            .inner
            .accept_q
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .pop_front();
        match popped {
            Some(c) => Accepted::Conn(c),
            None if self.inner.closed.load(Ordering::Acquire) => Accepted::Closed,
            None => Accepted::Retry,
        }
    }

    fn desc(&self) -> String {
        format!("sim:{:#x}", self.inner.seed)
    }
}

pub struct SimConnector {
    inner: Arc<NetInner>,
}

impl Connector for SimConnector {
    type Conn = SimConn;

    fn connect(&self) -> io::Result<SimConn> {
        if self.inner.closed.load(Ordering::Acquire) {
            return Err(io::Error::new(
                ErrorKind::ConnectionRefused,
                "sim network closed",
            ));
        }
        let conn_id = self.inner.next_conn.fetch_add(1, Ordering::Relaxed);
        let duplex = Arc::new(DuplexInner {
            net: Arc::clone(&self.inner),
            conn_id,
            c2s: Pipe::new(),
            s2c: Pipe::new(),
            disconnected: AtomicBool::new(false),
        });
        self.inner
            .conns
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .push(Arc::downgrade(&duplex));
        let client = SimConn::new(Arc::clone(&duplex), End::Client);
        let server = SimConn::new(duplex, End::Server);
        self.inner
            .accept_q
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .push_back(server);
        Ok(client)
    }

    fn desc(&self) -> String {
        format!("sim:{:#x}", self.inner.seed)
    }
}

#[derive(Clone, Copy, PartialEq)]
enum End {
    Client,
    Server,
}

struct DuplexInner {
    net: Arc<NetInner>,
    conn_id: u64,
    /// Client writes → server reads.
    c2s: Pipe,
    /// Server writes → client reads.
    s2c: Pipe,
    /// Hard kill (injected disconnect or `shutdown_both`): both
    /// directions fail, queued-but-undelivered delayed data is lost.
    disconnected: AtomicBool,
}

impl DuplexInner {
    fn kill(&self) {
        self.disconnected.store(true, Ordering::Release);
        self.c2s.wake();
        self.s2c.wake();
    }
}

struct Pipe {
    state: Mutex<PipeState>,
    cv: Condvar,
}

#[derive(Default)]
struct PipeState {
    /// Bytes written but not yet forming a complete frame.
    frame_buf: Vec<u8>,
    /// Faulted frames awaiting delivery, FIFO, head-of-line released
    /// by virtual time.
    segments: VecDeque<Segment>,
    /// A frame held back by a reorder fault, swapped in after its
    /// successor.
    held: Option<Vec<u8>>,
    /// Occurrence counters keyed by frame content hash.
    occurrences: HashMap<u64, u64>,
    /// The write side is gone (clean close): EOF once drained.
    write_closed: bool,
}

struct Segment {
    release_ns: u64,
    bytes: Vec<u8>,
    pos: usize,
}

impl Pipe {
    fn new() -> Pipe {
        Pipe {
            state: Mutex::new(PipeState::default()),
            cv: Condvar::new(),
        }
    }

    fn wake(&self) {
        self.cv.notify_all();
    }

    fn close_write(&self) {
        let mut st = self.state.lock().unwrap_or_else(PoisonError::into_inner);
        if let Some(held) = st.held.take() {
            let now = 0; // flush immediately
            st.segments.push_back(Segment {
                release_ns: now,
                bytes: held,
                pos: 0,
            });
        }
        st.write_closed = true;
        drop(st);
        self.wake();
    }
}

fn fnv_u64(h: u64, v: u64) -> u64 {
    fnv1a_extend(h, &v.to_le_bytes())
}

/// Keeps one end of the connection open for writing as long as any
/// clone of that end is alive; the last drop closes the outbound pipe
/// so the peer sees EOF.
struct EndHold {
    duplex: Arc<DuplexInner>,
    end: End,
}

impl Drop for EndHold {
    fn drop(&mut self) {
        match self.end {
            End::Client => self.duplex.c2s.close_write(),
            End::Server => self.duplex.s2c.close_write(),
        }
    }
}

/// One end of a simulated connection. Cloning (via
/// [`Conn::try_clone`]) shares the underlying pipes, mirroring
/// `TcpStream::try_clone`.
pub struct SimConn {
    duplex: Arc<DuplexInner>,
    end: End,
    read_wait: Mutex<Duration>,
    _hold: Arc<EndHold>,
}

impl SimConn {
    fn new(duplex: Arc<DuplexInner>, end: End) -> SimConn {
        let hold = Arc::new(EndHold {
            duplex: Arc::clone(&duplex),
            end,
        });
        SimConn {
            duplex,
            end,
            read_wait: Mutex::new(DEFAULT_READ_WAIT),
            _hold: hold,
        }
    }

    fn read_pipe(&self) -> &Pipe {
        match self.end {
            End::Client => &self.duplex.s2c,
            End::Server => &self.duplex.c2s,
        }
    }

    fn write_pipe(&self) -> &Pipe {
        match self.end {
            End::Client => &self.duplex.c2s,
            End::Server => &self.duplex.s2c,
        }
    }

    /// 0 = client→server, 1 = server→client (fault-stream separation).
    fn write_dir(&self) -> u64 {
        match self.end {
            End::Client => 0,
            End::Server => 1,
        }
    }

    fn now_ns(&self) -> u64 {
        match &self.duplex.net.clock {
            Clock::Virtual(vc) => vc.now_ns(),
            // Under the system clock nothing is ever "not yet
            // released": delays degrade to zero.
            Clock::System => u64::MAX,
        }
    }

    /// Apply the seeded fate of one complete frame and enqueue the
    /// resulting segments. Returns `false` if the fate was a mid-write
    /// disconnect (the connection is now dead).
    fn enqueue_frame(&self, st: &mut PipeState, frame: Vec<u8>, profile: &FaultProfile) -> bool {
        let net = &self.duplex.net;
        let now = match &net.clock {
            Clock::Virtual(vc) => vc.now_ns(),
            Clock::System => 0,
        };
        let push = |st: &mut PipeState, bytes: Vec<u8>, release_ns: u64| {
            st.segments.push_back(Segment {
                release_ns,
                bytes,
                pos: 0,
            });
        };
        // An active partition stalls everything, both directions,
        // regardless of the profile — including driver-initiated
        // partitions (`SimNet::partition_for`) on a faultless net.
        // Stall, not drop: a stream transport retransmits below the
        // frame layer, so a partition can delay the middle of a stream
        // but can never lose it while delivering the tail. The frame is
        // queued with its release pinned to the heal instant.
        if net.partition_active() {
            net.tallies.partitioned.fetch_add(1, Ordering::Relaxed);
            let heal = net.partition_until_ns.load(Ordering::Acquire);
            push(st, frame, heal.max(now));
            return true;
        }
        if profile.is_none() {
            push(st, frame, now);
            return true;
        }
        let content = fnv1a(&frame);
        let occ = {
            let c = st.occurrences.entry(content).or_insert(0);
            let v = *c;
            *c += 1;
            v
        };
        let mut h = fnv_u64(FNV_OFFSET, net.seed);
        h = fnv_u64(h, self.duplex.conn_id);
        h = fnv_u64(h, self.write_dir());
        h = fnv_u64(h, content);
        h = fnv_u64(h, occ);

        let disconnect_eligible = !profile.disconnect_c2s_only || self.write_dir() == 0;
        if disconnect_eligible && ((h % 10_000) as u32) < profile.disconnect_per_10k {
            // Mid-write disconnect: half the frame escapes, then the
            // connection dies in both directions.
            net.tallies.disconnects.fetch_add(1, Ordering::Relaxed);
            let half = frame.len() / 2;
            push(st, frame[..half].to_vec(), now);
            return false;
        }
        if (((h >> 13) % 10_000) as u32) < profile.drop_per_10k {
            net.tallies.dropped.fetch_add(1, Ordering::Relaxed);
            return true;
        }
        if (((h >> 7) % 10_000) as u32) < profile.partition_per_10k
            && !profile.partition_heal.is_zero()
        {
            // The partitioning frame is the first one stalled; under
            // Clock::System `begin_partition` is a no-op and the fate
            // degrades to plain delivery.
            net.tallies.partitioned.fetch_add(1, Ordering::Relaxed);
            net.begin_partition(profile.partition_heal);
            let heal = net.partition_until_ns.load(Ordering::Acquire);
            push(st, frame, heal.max(now));
            return true;
        }
        let dup = (((h >> 26) % 10_000) as u32) < profile.dup_per_10k;
        let reorder = (((h >> 39) % 10_000) as u32) < profile.reorder_per_10k;
        let mut release_ns = now;
        if (((h >> 51) % 10_000) as u32) < profile.delay_per_10k && !profile.max_delay.is_zero() {
            let span = profile.max_delay.as_nanos().min(u128::from(u64::MAX)) as u64;
            let delay = fnv_u64(h, 0xd31a) % span.max(1);
            release_ns = now.saturating_add(delay);
            net.tallies.delayed.fetch_add(1, Ordering::Relaxed);
        }
        if dup {
            net.tallies.duplicated.fetch_add(1, Ordering::Relaxed);
        }
        // A frame leaving the hold slot rides in front of nothing —
        // it was already swapped behind exactly one successor.
        if reorder && st.held.is_none() {
            net.tallies.reordered.fetch_add(1, Ordering::Relaxed);
            st.held = Some(frame.clone());
            if dup {
                push(st, frame, release_ns);
            }
            return true;
        }
        push(st, frame.clone(), release_ns);
        if dup {
            push(st, frame, release_ns);
        }
        if let Some(held) = st.held.take() {
            push(st, held, release_ns);
        }
        true
    }
}

impl Read for SimConn {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        let wait = *self
            .read_wait
            .lock()
            .unwrap_or_else(PoisonError::into_inner);
        let deadline = Instant::now() + wait;
        let pipe = self.read_pipe();
        let mut st = pipe.state.lock().unwrap_or_else(PoisonError::into_inner);
        loop {
            let now_ns = self.now_ns();
            if let Some(seg) = st.segments.front_mut() {
                if seg.release_ns <= now_ns {
                    let n = buf.len().min(seg.bytes.len() - seg.pos);
                    buf[..n].copy_from_slice(&seg.bytes[seg.pos..seg.pos + n]);
                    seg.pos += n;
                    if seg.pos == seg.bytes.len() {
                        st.segments.pop_front();
                    }
                    return Ok(n);
                }
            }
            if self.duplex.disconnected.load(Ordering::Acquire) {
                // Hard kill: undelivered delayed data is lost, EOF.
                return Ok(0);
            }
            if st.write_closed && st.segments.is_empty() {
                return Ok(0);
            }
            let left = deadline.saturating_duration_since(Instant::now());
            if left.is_zero() {
                return Err(io::Error::new(ErrorKind::WouldBlock, "sim read poll"));
            }
            let (guard, _) = pipe
                .cv
                .wait_timeout(st, left)
                .unwrap_or_else(PoisonError::into_inner);
            st = guard;
        }
    }
}

impl Write for SimConn {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        if self.duplex.disconnected.load(Ordering::Acquire) {
            return Err(io::Error::new(ErrorKind::BrokenPipe, "sim conn dead"));
        }
        let profile = self
            .duplex
            .net
            .profile
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .clone();
        let pipe = self.write_pipe();
        let mut st = pipe.state.lock().unwrap_or_else(PoisonError::into_inner);
        if st.write_closed {
            return Err(io::Error::new(ErrorKind::BrokenPipe, "sim pipe closed"));
        }
        st.frame_buf.extend_from_slice(buf);
        // Split whole wire frames (u32 BE length prefix) out of the
        // write buffer; fates are decided per complete frame.
        let mut killed = false;
        loop {
            if st.frame_buf.len() < 4 {
                break;
            }
            let len = u32::from_be_bytes([
                st.frame_buf[0],
                st.frame_buf[1],
                st.frame_buf[2],
                st.frame_buf[3],
            ]) as usize;
            if st.frame_buf.len() < 4 + len {
                break;
            }
            let frame: Vec<u8> = st.frame_buf.drain(..4 + len).collect();
            if !self.enqueue_frame(&mut st, frame, &profile) {
                killed = true;
                break;
            }
        }
        drop(st);
        pipe.wake();
        if killed {
            self.duplex.kill();
        }
        Ok(buf.len())
    }

    fn flush(&mut self) -> io::Result<()> {
        Ok(())
    }
}

impl Conn for SimConn {
    fn try_clone(&self) -> io::Result<SimConn> {
        Ok(SimConn {
            duplex: Arc::clone(&self.duplex),
            end: self.end,
            read_wait: Mutex::new(
                *self
                    .read_wait
                    .lock()
                    .unwrap_or_else(PoisonError::into_inner),
            ),
            _hold: Arc::clone(&self._hold),
        })
    }

    fn shutdown_both(&self) {
        self.duplex.kill();
    }

    fn set_read_timeout(&self, t: Option<Duration>) -> io::Result<()> {
        let mut w = self
            .read_wait
            .lock()
            .unwrap_or_else(PoisonError::into_inner);
        // Cap the real wait: under virtual time a configured "25 ms"
        // read timeout is poll granularity, and long real waits would
        // starve the driver.
        *w = t.unwrap_or(DEFAULT_READ_WAIT).min(Duration::from_millis(2));
        Ok(())
    }

    fn set_write_timeout(&self, _t: Option<Duration>) -> io::Result<()> {
        Ok(()) // sim writes never block
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol::{encode_frame, Frame, FrameReader};

    fn frame(seq: u64) -> Vec<u8> {
        encode_frame(&Frame::Ack {
            seq,
            buffered: seq as usize,
        })
        .unwrap()
    }

    fn pair(seed: u64, clock: Clock) -> (SimNet, SimConn, SimConn) {
        let net = SimNet::new(seed, clock);
        let client = net.connector().connect().unwrap();
        let server = match net.transport().accept() {
            Accepted::Conn(c) => c,
            _ => panic!("no accepted conn"),
        };
        (net, client, server)
    }

    #[test]
    fn faultless_roundtrip_delivers_in_order() {
        let (_net, mut client, server) = pair(1, Clock::System);
        for seq in 0..10 {
            client.write_all(&frame(seq)).unwrap();
        }
        let mut reader = FrameReader::new(server);
        for seq in 0..10 {
            let f = reader.read_frame().unwrap();
            assert_eq!(
                f,
                Frame::Ack {
                    seq,
                    buffered: seq as usize
                }
            );
        }
    }

    #[test]
    fn clean_close_is_eof_after_drain() {
        let (_net, mut client, server) = pair(2, Clock::System);
        client.write_all(&frame(7)).unwrap();
        drop(client);
        let mut reader = FrameReader::new(server);
        assert!(matches!(
            reader.read_frame().unwrap(),
            Frame::Ack { seq: 7, .. }
        ));
        assert!(matches!(
            reader.read_frame(),
            Err(crate::protocol::WireError::Closed)
        ));
    }

    #[test]
    fn hard_disconnect_fails_both_directions() {
        let (_net, mut client, mut server) = pair(3, Clock::System);
        client.shutdown_both();
        assert!(client.write_all(&frame(0)).is_err());
        let mut buf = [0u8; 16];
        assert_eq!(server.read(&mut buf).unwrap(), 0);
        assert!(server.write_all(&frame(0)).is_err());
    }

    #[test]
    fn same_seed_same_fault_decisions() {
        let run = |seed: u64| -> Vec<u64> {
            let (net, mut client, server) = pair(seed, Clock::System);
            net.set_profile(FaultProfile {
                drop_per_10k: 3000,
                dup_per_10k: 1500,
                reorder_per_10k: 1000,
                delay_per_10k: 0,
                max_delay: Duration::ZERO,
                disconnect_per_10k: 0,
                disconnect_c2s_only: false,
                partition_per_10k: 0,
                partition_heal: Duration::ZERO,
            });
            for seq in 0..50 {
                client.write_all(&frame(seq)).unwrap();
            }
            drop(client);
            let mut got = Vec::new();
            let mut reader = FrameReader::new(server);
            while let Ok(f) = reader.read_frame() {
                if let Frame::Ack { seq, .. } = f {
                    got.push(seq);
                }
            }
            got
        };
        let a = run(42);
        let b = run(42);
        let c = run(43);
        assert_eq!(a, b, "same seed must reproduce the same delivery");
        assert!(a.len() < 50, "faults must actually fire");
        assert!(
            a.iter().any(|s| !c.contains(s)) || a != c || a.len() != c.len(),
            "different seeds should differ"
        );
    }

    #[test]
    fn delayed_frames_wait_for_virtual_time() {
        let (clock, vc) = Clock::new_virtual();
        let (net, mut client, server) = pair(9, clock);
        net.set_profile(FaultProfile {
            drop_per_10k: 0,
            dup_per_10k: 0,
            reorder_per_10k: 0,
            delay_per_10k: 10_000, // always delay
            max_delay: Duration::from_millis(100),
            disconnect_per_10k: 0,
            disconnect_c2s_only: false,
            partition_per_10k: 0,
            partition_heal: Duration::ZERO,
        });
        client.write_all(&frame(1)).unwrap();
        let mut reader = FrameReader::new(server);
        // Not released yet: poll sees nothing.
        assert!(reader.poll_frame().unwrap().is_none());
        vc.advance(Duration::from_millis(100));
        let f = reader.read_frame().unwrap();
        assert!(matches!(f, Frame::Ack { seq: 1, .. }));
    }

    #[test]
    fn partition_stalls_both_directions_until_heal() {
        let (clock, vc) = Clock::new_virtual();
        let (net, mut client, mut server) = pair(21, clock);
        // Frames written before the cut still deliver.
        client.write_all(&frame(1)).unwrap();
        net.partition_for(Duration::from_millis(50));
        assert!(net.partitioned());
        // Both directions stalled: writes succeed (no error surfaced),
        // nothing arrives until the heal.
        client.write_all(&frame(2)).unwrap();
        server.write_all(&frame(3)).unwrap();
        let mut sreader = FrameReader::new(server.try_clone().unwrap());
        let mut creader = FrameReader::new(client.try_clone().unwrap());
        assert!(matches!(
            sreader.read_frame().unwrap(),
            Frame::Ack { seq: 1, .. }
        ));
        assert!(sreader.poll_frame().unwrap().is_none());
        assert!(creader.poll_frame().unwrap().is_none());
        assert_eq!(net.fault_counts().partitioned, 2);
        // Heal is deterministic: after `heal` of virtual time the
        // stalled frames deliver in order, ahead of post-heal traffic —
        // a stream never loses its middle while delivering its tail.
        vc.advance(Duration::from_millis(50));
        assert!(!net.partitioned());
        client.write_all(&frame(4)).unwrap();
        server.write_all(&frame(5)).unwrap();
        assert!(matches!(
            sreader.read_frame().unwrap(),
            Frame::Ack { seq: 2, .. }
        ));
        assert!(matches!(
            creader.read_frame().unwrap(),
            Frame::Ack { seq: 3, .. }
        ));
        assert!(matches!(
            sreader.read_frame().unwrap(),
            Frame::Ack { seq: 4, .. }
        ));
        assert!(matches!(
            creader.read_frame().unwrap(),
            Frame::Ack { seq: 5, .. }
        ));
    }

    #[test]
    fn partition_fate_fires_from_profile() {
        let (clock, vc) = Clock::new_virtual();
        let (net, mut client, server) = pair(23, clock);
        net.set_profile(FaultProfile {
            partition_per_10k: 10_000, // first frame partitions
            partition_heal: Duration::from_millis(10),
            ..FaultProfile::none()
        });
        client.write_all(&frame(1)).unwrap();
        assert!(net.partitioned(), "fate must open a partition");
        assert!(net.fault_counts().partitioned >= 1);
        // Restore a clean profile, heal, and the link works again; the
        // partitioning frame itself delivers at the heal instant.
        net.set_profile(FaultProfile::none());
        vc.advance(Duration::from_millis(10));
        client.write_all(&frame(2)).unwrap();
        let mut reader = FrameReader::new(server);
        assert!(matches!(
            reader.read_frame().unwrap(),
            Frame::Ack { seq: 1, .. }
        ));
        assert!(matches!(
            reader.read_frame().unwrap(),
            Frame::Ack { seq: 2, .. }
        ));
    }

    #[test]
    fn kill_all_kills_live_conns_but_allows_new_dials() {
        let net = SimNet::new(31, Clock::System);
        let mut c1 = net.connector().connect().unwrap();
        let mut c2 = net.connector().connect().unwrap();
        net.kill_all();
        assert!(c1.write_all(&frame(0)).is_err());
        assert!(c2.write_all(&frame(0)).is_err());
        // The "restarted backend" accepts fresh dials on the same net.
        let mut c3 = net.connector().connect().unwrap();
        c3.write_all(&frame(9)).unwrap();
        // Drain the two dead server halves, then reach the live one.
        let s = loop {
            match net.transport().accept() {
                Accepted::Conn(c) => {
                    let mut probe = FrameReader::new(c.try_clone().unwrap());
                    match probe.read_frame() {
                        Ok(Frame::Ack { seq: 9, .. }) => break c,
                        _ => continue,
                    }
                }
                _ => panic!("expected three accepted conns"),
            }
        };
        drop(s);
    }

    #[test]
    fn mid_write_disconnect_truncates_and_kills() {
        let (net, mut client, server) = pair(11, Clock::System);
        net.set_profile(FaultProfile {
            drop_per_10k: 0,
            dup_per_10k: 0,
            reorder_per_10k: 0,
            delay_per_10k: 0,
            max_delay: Duration::ZERO,
            disconnect_per_10k: 10_000, // every frame
            disconnect_c2s_only: false,
            partition_per_10k: 0,
            partition_heal: Duration::ZERO,
        });
        client.write_all(&frame(1)).unwrap();
        let mut reader = FrameReader::new(server);
        // Half a frame then EOF: a Truncated error, not a clean Closed.
        assert!(matches!(
            reader.read_frame(),
            Err(crate::protocol::WireError::Truncated { .. })
        ));
        assert_eq!(net.fault_counts().disconnects, 1);
    }
}
