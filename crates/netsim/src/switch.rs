//! The output-queued switch simulation loop.
//!
//! ## Metrics
//!
//! The loop feeds the process-wide [`fmml_obs`] registry:
//! `netsim.events` (events processed), `netsim.pkts_enqueued`,
//! `netsim.pkts_dropped.buffer_full` / `.threshold` (admission failures
//! split by cause), and the `netsim.sim_sec_wall_ms` histogram (wall-clock
//! milliseconds per simulated second, one sample per [`Simulation::run_ms`]).
//! The counts are kept in the [`Simulation`] and added to the global
//! counters once, when [`Simulation::run_ms`] returns. Adding to a
//! process-global counter per event would make simulations on different
//! threads contend for its cache line on every event, so that two
//! concurrent simulations take as long as two serial ones.

use fmml_obs::{log_event, Counter, Histogram, Unit};

use crate::buffer::SharedBuffer;
use crate::config::SimConfig;
use crate::events::{Event, EventQueue};
use crate::packet::{Packet, PortId};
use crate::queue::OutputQueue;
use crate::scheduler::Scheduler;
use crate::trace::GroundTruth;
use crate::traffic::{TrafficConfig, TrafficSource};
use crate::units::{Duration, Time, NANOS_PER_MILLI};

/// Discrete events popped off the simulation queue.
static EVENTS: Counter = Counter::new("netsim.events");
/// Packets admitted into an output queue.
static PKTS_ENQUEUED: Counter = Counter::new("netsim.pkts_enqueued");
/// Packets rejected because the shared buffer was exhausted.
static DROPPED_BUFFER_FULL: Counter = Counter::new("netsim.pkts_dropped.buffer_full");
/// Packets rejected by the buffer policy's per-queue threshold.
static DROPPED_THRESHOLD: Counter = Counter::new("netsim.pkts_dropped.threshold");
/// Wall-clock cost of simulation, normalized to one simulated second.
static SIM_SEC_WALL_MS: Histogram = Histogram::new("netsim.sim_sec_wall_ms", Unit::Millis);

/// One run's counts, published to the global counters when it ends.
#[derive(Debug, Default)]
struct RunCounts {
    events: u64,
    enqueued: u64,
    dropped_buffer_full: u64,
    dropped_threshold: u64,
}

impl RunCounts {
    fn publish(&self) {
        for (counter, n) in [
            (&EVENTS, self.events),
            (&PKTS_ENQUEUED, self.enqueued),
            (&DROPPED_BUFFER_FULL, self.dropped_buffer_full),
            (&DROPPED_THRESHOLD, self.dropped_threshold),
        ] {
            // A counter registers on its first add: skipping zeros keeps
            // never-seen causes out of metric dumps.
            if n > 0 {
                counter.add(n);
            }
        }
    }
}

/// A complete simulation instance: switch state + traffic + event loop.
///
/// Build one with [`Simulation::new`] and drive it with
/// [`Simulation::run_ms`], which returns the fine-grained
/// [`GroundTruth`] record.
pub struct Simulation {
    cfg: SimConfig,
    events: EventQueue,
    queues: Vec<OutputQueue>,
    buffer: SharedBuffer,
    schedulers: Vec<Box<dyn Scheduler>>,
    /// Whether each egress port is currently serializing a packet.
    port_busy: Vec<bool>,
    sources: Vec<Box<dyn TrafficSource>>,
    /// Each source's one scheduled packet, named by its `Event::Arrival`.
    pending: Vec<Option<Packet>>,
    /// Serialization time of a `cfg.packet_bytes` packet.
    pkt_tx: Duration,
    /// Scratch queue lengths for schedulers and snapshots, reused so the
    /// event loop does not allocate.
    lens: Vec<u32>,
    counts: RunCounts,
    trace: GroundTruth,
    /// Horizon: arrivals at or beyond this time are not scheduled.
    horizon: Time,
}

impl Simulation {
    /// Create a simulation with the given switch config and traffic mix.
    /// All randomness is derived from `seed`.
    pub fn new(cfg: SimConfig, traffic: TrafficConfig, seed: u64) -> Simulation {
        cfg.validate().expect("invalid SimConfig");
        let sources = traffic.build(&cfg, seed);
        Simulation::with_sources(cfg, sources)
    }

    /// Create a simulation with explicit traffic sources (used by tests and
    /// the deterministic examples).
    pub fn with_sources(cfg: SimConfig, sources: Vec<Box<dyn TrafficSource>>) -> Simulation {
        cfg.validate().expect("invalid SimConfig");
        let nq = cfg.num_queues();
        let queues = (0..nq).map(|_| OutputQueue::new()).collect();
        let buffer = SharedBuffer::new(cfg.buffer_policy.build(), cfg.buffer_packets);
        let schedulers = (0..cfg.num_ports).map(|_| cfg.scheduler.build()).collect();
        let trace = GroundTruth::new(cfg.num_ports, cfg.queues_per_port);
        Simulation {
            port_busy: vec![false; cfg.num_ports],
            pending: vec![None; sources.len()],
            pkt_tx: cfg.pkt_tx_time(),
            lens: Vec::with_capacity(nq),
            counts: RunCounts::default(),
            cfg,
            events: EventQueue::new(),
            queues,
            buffer,
            schedulers,
            sources,
            trace,
            horizon: Time::ZERO,
        }
    }

    /// Run for `ms` milliseconds of simulated time and return the trace.
    pub fn run_ms(mut self, ms: u64) -> GroundTruth {
        let wall_start = std::time::Instant::now();
        self.horizon = Time::from_ms(ms);
        // Prime one pending arrival per source.
        for i in 0..self.sources.len() {
            self.refill_source(i);
        }
        // Bin-closing snapshots at 1, 2, ..., ms.
        self.events.schedule(Time::from_ms(1), Event::Snapshot);

        let mut bins_done = 0u64;
        while bins_done < ms {
            let (time, event) = self
                .events
                .pop()
                .expect("event queue drained before final snapshot");
            self.counts.events += 1;
            match event {
                Event::Arrival(source) => {
                    let pkt = self.pending[source]
                        .take()
                        .expect("arrival without a pending packet");
                    self.refill_source(source);
                    self.on_arrival(pkt, time);
                }
                Event::TxComplete(port) => self.on_tx_complete(port, time),
                Event::Snapshot => {
                    self.lens.clear();
                    self.lens.extend(self.queues.iter().map(OutputQueue::len));
                    self.trace.end_bin(&self.lens, self.buffer.occupied());
                    bins_done += 1;
                    if bins_done < ms {
                        self.events
                            .schedule(Time(time.0 + NANOS_PER_MILLI), Event::Snapshot);
                    }
                }
            }
        }
        self.counts.publish();
        if ms > 0 {
            let wall = wall_start.elapsed();
            // Normalize to wall-ns per simulated second so runs of any
            // length land in the same histogram.
            let per_sim_sec_ns = (wall.as_nanos() as u64)
                .saturating_mul(1_000)
                .checked_div(ms)
                .unwrap_or(0);
            SIM_SEC_WALL_MS.record(per_sim_sec_ns);
            log_event!(
                "netsim.run",
                "sim_ms" = ms,
                "wall_ms" = wall.as_secs_f64() * 1e3,
                "events" = self.counts.events,
            );
        }
        self.trace
    }

    /// Schedule the next packet from source `i`, unless past the horizon.
    fn refill_source(&mut self, i: usize) {
        if let Some(pkt) = self.sources[i].next_packet() {
            if pkt.arrival < self.horizon {
                // Sources may start "in the past" relative to a popped
                // event only if they violate time ordering; guard in debug.
                debug_assert!(pkt.arrival >= self.events.now());
                self.pending[i] = Some(pkt);
                self.events.schedule(pkt.arrival, Event::Arrival(i));
            }
        }
    }

    fn on_arrival(&mut self, pkt: Packet, now: Time) {
        self.trace.record_received(pkt.src_port);
        let qid = pkt.queue_id(self.cfg.queues_per_port);
        let qlen = self.queues[qid].len();
        if self.buffer.admits(pkt.class.0, qlen) {
            self.queues[qid].enqueue(pkt);
            self.buffer.on_enqueue();
            self.counts.enqueued += 1;
            self.trace.observe_qlen(qid, self.queues[qid].len());
            let port = pkt.dst_port;
            if !self.port_busy[port] {
                self.start_transmission(port, now);
            }
        } else {
            if self.buffer.occupied() >= self.buffer.capacity() {
                self.counts.dropped_buffer_full += 1;
            } else {
                self.counts.dropped_threshold += 1;
            }
            self.queues[qid].record_drop();
            self.trace.record_drop(pkt.dst_port);
        }
    }

    fn on_tx_complete(&mut self, port: PortId, now: Time) {
        self.trace.record_sent(port);
        self.port_busy[port] = false;
        self.start_transmission(port, now);
    }

    /// If any queue at `port` is non-empty, dequeue per the scheduler and
    /// begin serializing (work conservation).
    fn start_transmission(&mut self, port: PortId, now: Time) {
        let base = port * self.cfg.queues_per_port;
        self.lens.clear();
        self.lens.extend(
            self.queues[base..base + self.cfg.queues_per_port]
                .iter()
                .map(OutputQueue::len),
        );
        if let Some(local) = self.schedulers[port].select(&self.lens) {
            let qid = base + local;
            let pkt = self.queues[qid]
                .dequeue()
                .expect("scheduler selected an empty queue");
            self.buffer.on_dequeue();
            self.trace.observe_qlen(qid, self.queues[qid].len());
            self.port_busy[port] = true;
            let tx = if pkt.size_bytes == self.cfg.packet_bytes {
                self.pkt_tx
            } else {
                self.cfg.port_rate.tx_time(pkt.size_bytes)
            };
            let done = now + tx;
            self.events.schedule(done, Event::TxComplete(port));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::packet::TrafficClass;
    use crate::traffic::OnOffSource;
    use crate::units::Duration;

    fn small() -> SimConfig {
        SimConfig::small()
    }

    /// A source that emits an explicit packet list (must be time-ordered).
    struct ScriptedSource {
        pkts: Vec<Packet>,
        i: usize,
    }

    impl TrafficSource for ScriptedSource {
        fn next_packet(&mut self) -> Option<Packet> {
            let p = self.pkts.get(self.i).copied();
            self.i += 1;
            p
        }
    }

    fn burst(src: PortId, dst: PortId, n: u32, start_ns: u64, spacing_ns: u64) -> ScriptedSource {
        let pkts = (0..n)
            .map(|k| Packet {
                src_port: src,
                dst_port: dst,
                class: TrafficClass::HIGH,
                size_bytes: 1500,
                flow_id: 1,
                arrival: Time(start_ns + k as u64 * spacing_ns),
            })
            .collect();
        ScriptedSource { pkts, i: 0 }
    }

    #[test]
    fn conservation_received_equals_sent_plus_dropped_plus_queued() {
        let cfg = small();
        let traffic = TrafficConfig::websearch_incast(cfg.num_ports, 0.6);
        let t = Simulation::new(cfg, traffic, 3).run_ms(300);

        let recv: u64 = (0..t.num_ports())
            .flat_map(|p| t.received_series(p).iter().map(|&x| x as u64))
            .sum();
        let sent: u64 = (0..t.num_ports())
            .flat_map(|p| t.sent_series(p).iter().map(|&x| x as u64))
            .sum();
        let drop: u64 = (0..t.num_ports())
            .flat_map(|p| t.dropped_series(p).iter().map(|&x| x as u64))
            .sum();
        let queued: u64 = (0..t.num_queues())
            .map(|q| *t.queue_len_series(q).last().unwrap() as u64)
            .sum();
        // Up to num_ports packets may be in flight (dequeued, not yet sent).
        let diff = recv as i64 - (sent + drop + queued) as i64;
        assert!(
            (0..=t.num_ports() as i64).contains(&diff),
            "conservation violated: recv={recv} sent={sent} drop={drop} queued={queued}"
        );
        assert!(recv > 0, "no traffic generated");
    }

    #[test]
    fn fan_in_builds_a_queue_and_drains_at_line_rate() {
        // Two senders each at full line rate to port 0: queue grows ~1 pkt
        // per packet-time, then drains.
        let cfg = small();
        let spacing = cfg.pkt_tx_time().as_nanos();
        let sources: Vec<Box<dyn TrafficSource>> = vec![
            Box::new(burst(1, 0, 50, 0, spacing)),
            Box::new(burst(2, 0, 50, 0, spacing)),
        ];
        let t = Simulation::with_sources(cfg, sources).run_ms(3);
        // 100 packets at 2x line rate: backlog peaks near 50.
        let peak = *t.queue_max_series(0).iter().max().unwrap();
        assert!(peak >= 40, "expected a backlog, peak={peak}");
        // All packets eventually sent, none dropped (buffer is large enough).
        let sent: u32 = t.sent_series(0).iter().sum();
        assert_eq!(sent, 100);
        let dropped: u32 = t.dropped_series(0).iter().sum();
        assert_eq!(dropped, 0);
        // Queue empty at the end.
        assert_eq!(*t.queue_len_series(0).last().unwrap(), 0);
    }

    #[test]
    fn shared_buffer_drops_when_exhausted() {
        let mut cfg = small();
        cfg.buffer_packets = 20;
        let spacing = cfg.pkt_tx_time().as_nanos();
        // 3 senders at line rate -> overload 3x, tiny buffer.
        let sources: Vec<Box<dyn TrafficSource>> = vec![
            Box::new(burst(1, 0, 200, 0, spacing)),
            Box::new(burst(2, 0, 200, 0, spacing)),
            Box::new(burst(3, 0, 200, 0, spacing)),
        ];
        let t = Simulation::with_sources(cfg, sources).run_ms(10);
        let dropped: u32 = t.dropped_series(0).iter().sum();
        assert!(
            dropped > 0,
            "expected drops under 3x overload with 20-pkt buffer"
        );
        // Queue length can never exceed the buffer.
        for q in 0..t.num_queues() {
            for &l in t.queue_max_series(q) {
                assert!(l <= 20);
            }
        }
    }

    #[test]
    fn strict_priority_starves_low_class_under_overload() {
        let cfg = small();
        let sources: Vec<Box<dyn TrafficSource>> = vec![
            // High-priority at full line rate.
            Box::new(OnOffSource::new(
                &cfg,
                1,
                0,
                TrafficClass::HIGH,
                1.0,
                Duration::from_ms(5),
                Duration::ZERO,
            )),
            // Low-priority also at line rate: must queue behind HIGH.
            Box::new(OnOffSource::new(
                &cfg,
                2,
                0,
                TrafficClass::LOW,
                1.0,
                Duration::from_ms(5),
                Duration::ZERO,
            )),
        ];
        let t = Simulation::with_sources(cfg, sources).run_ms(5);
        // Queue 0 (HIGH of port 0) stays near-empty; queue 1 (LOW) builds.
        let high_peak = *t.queue_max_series(0).iter().max().unwrap();
        let low_peak = *t.queue_max_series(1).iter().max().unwrap();
        assert!(high_peak <= 3, "high-prio backlog {high_peak}");
        assert!(low_peak > 20, "low-prio should backlog, got {low_peak}");
    }

    #[test]
    fn deterministic_across_runs_with_same_seed() {
        let cfg = small();
        let traffic = TrafficConfig::websearch_incast(cfg.num_ports, 0.5);
        let a = Simulation::new(cfg.clone(), traffic.clone(), 99).run_ms(100);
        let b = Simulation::new(cfg, traffic, 99).run_ms(100);
        for q in 0..a.num_queues() {
            assert_eq!(a.queue_len_series(q), b.queue_len_series(q));
        }
        for p in 0..a.num_ports() {
            assert_eq!(a.sent_series(p), b.sent_series(p));
        }
    }

    #[test]
    fn different_seeds_differ() {
        let cfg = small();
        let traffic = TrafficConfig::websearch_incast(cfg.num_ports, 0.5);
        let a = Simulation::new(cfg.clone(), traffic.clone(), 1).run_ms(100);
        let b = Simulation::new(cfg, traffic, 2).run_ms(100);
        let same = (0..a.num_queues()).all(|q| a.queue_len_series(q) == b.queue_len_series(q));
        assert!(!same, "different seeds produced identical traces");
    }

    #[test]
    fn c3_holds_on_ground_truth() {
        // Work conservation => steps with a nonempty queue at port i are a
        // lower bound on packets sent (C3 of the paper), per 50ms interval.
        let cfg = small();
        let traffic = TrafficConfig::websearch_incast(cfg.num_ports, 0.6);
        let t = Simulation::new(cfg, traffic, 17).run_ms(500);
        for p in 0..t.num_ports() {
            let qs = t.queues_of_port(p);
            for interval in 0..(t.num_bins() / 50) {
                let lo = interval * 50;
                let hi = lo + 50;
                let ne: u32 = (lo..hi)
                    .filter(|&bin| qs.clone().any(|q| t.queue_len_series(q)[bin] > 0))
                    .count() as u32;
                let sent: u32 = t.sent_series(p)[lo..hi].iter().sum();
                assert!(
                    ne <= sent,
                    "C3 violated on ground truth: port {p} interval {interval} NE={ne} sent={sent}"
                );
            }
        }
    }
}
