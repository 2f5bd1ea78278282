//! The benchmark's workloads: what is simulated, how it is served, and
//! at which absolute rates it is offered.

use fmml_core::transformer_imputer::Scales;
use fmml_fm::cem::CemEngine;
use fmml_netsim::SimConfig;
use fmml_serve::WireCodec;

/// Telemetry period: one coarse interval per port every 50 ms on the wire,
/// and the per-interval latency limit (paper §5).
pub const DEADLINE_MS: f64 = 50.0;

/// One workload. Rates are port-intervals per second summed over all
/// switches.
#[derive(Debug, Clone)]
pub struct Workload {
    pub name: &'static str,
    pub sim: SimConfig,
    /// Offered load of the websearch+incast traffic mix.
    pub traffic_load: f64,
    /// Fine bins per coarse interval and intervals per sliding window.
    pub interval_len: usize,
    pub window_intervals: usize,
    /// Switches: each is one session (one connection) listing all ports.
    pub switches: usize,
    /// `true`: SMT rung on top of the ladder; `false`: fast CEM.
    pub smt: bool,
    pub codec: WireCodec,
    /// Backends behind a router; `0` serves directly from one server.
    pub backends: usize,
    pub light_ips: f64,
    pub heavy_ips: f64,
    /// Ladder rungs above `heavy_ips`, ascending; the top rung lies past
    /// the all-switch wire rate.
    pub ladder_ips: &'static [f64],
    /// KAL training: epochs over `train_windows_per_s × seconds` windows.
    pub epochs: usize,
    pub train_windows_per_s: f64,
    /// Held-out windows imputed (model + fast CEM) per run second.
    pub test_windows_per_s: f64,
}

impl Workload {
    pub const NAMES: [&'static str; 2] = ["paper-fast", "small-smt-routed"];

    pub fn by_name(name: &str) -> Option<Workload> {
        match name {
            // Paper geometry: 8 ports x 2 queues, 300-bin windows of six
            // 50-bin intervals. Direct server, default config: fast CEM
            // and JSON. The model forward dominates the server's work.
            "paper-fast" => Some(Workload {
                name: "paper-fast",
                sim: SimConfig::paper_default(),
                traffic_load: 0.5,
                interval_len: 50,
                window_intervals: 6,
                switches: 2,
                smt: false,
                codec: WireCodec::Json,
                backends: 0,
                light_ips: 40.0,
                heavy_ips: 60.0,
                ladder_ips: &[80.0, 120.0, 160.0, 240.0, 400.0],
                epochs: 2,
                train_windows_per_s: 1.0,
                test_windows_per_s: 3.0,
            }),
            // Small geometry: 4 ports x 2 queues, 60-bin windows of six
            // 10-bin intervals. Router + two backends running the SMT rung
            // (default conflict-bounded budget, no wall-clock timeout) over
            // the bin1 codec. The SMT solve dominates the server's work.
            "small-smt-routed" => Some(Workload {
                name: "small-smt-routed",
                sim: SimConfig::small(),
                traffic_load: 0.6,
                interval_len: 10,
                window_intervals: 6,
                switches: 2,
                smt: true,
                codec: WireCodec::Bin1,
                backends: 2,
                light_ips: 60.0,
                heavy_ips: 180.0,
                ladder_ips: &[240.0, 360.0, 540.0, 800.0],
                epochs: 6,
                train_windows_per_s: 6.25,
                test_windows_per_s: 50.0,
            }),
            _ => None,
        }
    }

    pub fn ports(&self) -> usize {
        self.sim.num_ports
    }

    pub fn queues(&self) -> usize {
        self.sim.queues_per_port
    }

    pub fn window_len(&self) -> usize {
        self.interval_len * self.window_intervals
    }

    pub fn routed(&self) -> bool {
        self.backends > 0
    }

    /// Every switch at wire rate: one interval per port per period.
    pub fn wire_rate_ips(&self) -> f64 {
        (self.switches * self.ports()) as f64 * 1000.0 / DEADLINE_MS
    }

    pub fn engine(&self) -> CemEngine {
        if self.smt {
            CemEngine::Smt {
                budget: fmml_smt::solver::Budget::default(),
            }
        } else {
            CemEngine::Fast
        }
    }

    /// Feature scales, as the offline evaluation harness derives them.
    pub fn scales(&self) -> Scales {
        Scales {
            qlen: self.sim.buffer_packets as f32,
            count: (self.sim.pkts_per_ms() as usize * self.interval_len) as f32,
        }
    }
}
