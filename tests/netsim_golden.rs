//! Golden-trace regression tests for `fmml-netsim`.
//!
//! The CEM determinism story leans on the simulator being a pure
//! function of `(config, traffic, seed)` — the differential and
//! determinism suites both assume two runs at the same seed see the
//! same windows. These tests pin that down: for three fixed seeds and
//! three small-geometry workloads, the FNV-1a fingerprint of every
//! queue-length series and every per-port drop series must match the
//! blessed constant. A second table pins what the benchmark simulates:
//! paper geometry (8 ports × 2 queues, websearch + incast at load 0.5)
//! over 2300 ms, the benchmark's segment length, fingerprinting every
//! recorded series.
//!
//! **Blessing a change.** If you *intentionally* change simulator
//! behaviour (scheduler, buffer policy, traffic model, RNG), rerun with
//!
//! ```text
//! FMML_BLESS=1 cargo test --test netsim_golden -- --nocapture
//! ```
//!
//! and paste the printed `("…", seed, 0x…)` rows over the `GOLDEN`
//! table and the printed `(seed, 0x…)` rows over `GOLDEN_PAPER`. Never bless to silence a failure you can't explain —
//! an unplanned hash change means nondeterminism or an accidental
//! behaviour change, and either one invalidates the CEM benchmarks.

use fmml::fm::cem::hash_u32_series;
use fmml::netsim::traffic::TrafficConfig;
use fmml::netsim::{SimConfig, Simulation};

const SEEDS: [u64; 3] = [7, 21, 1234];

/// The three pinned workloads.
fn workloads() -> Vec<(&'static str, TrafficConfig)> {
    let ports = SimConfig::small().num_ports;
    vec![
        ("websearch", TrafficConfig::websearch_only(0.6)),
        (
            "incast",
            TrafficConfig {
                websearch_load: 0.0,
                websearch_low_prio_prob: 0.7,
                incast_rate_per_sec: 80.0,
                incast_fanin: (2, ports.saturating_sub(1).max(2)),
                incast_burst_pkts: (20, 90),
            },
        ),
        ("mixed", TrafficConfig::websearch_incast(ports, 0.6)),
    ]
}

/// Fingerprint one simulation: every queue-length series, then every
/// per-port drop series, FNV-1a over the length-prefixed encoding (the
/// same `hash_u32_series` the CEM benchmark uses, so a trace change and
/// an enforcement change are comparable artifacts).
fn trace_hash(traffic: &TrafficConfig, seed: u64) -> u64 {
    let cfg = SimConfig::small();
    let gt = Simulation::new(cfg, traffic.clone(), seed).run_ms(300);
    let mut series: Vec<Vec<u32>> = Vec::new();
    for q in 0..gt.num_queues() {
        series.push(gt.queue_len_series(q).to_vec());
    }
    for p in 0..gt.num_ports() {
        series.push(gt.dropped_series(p).to_vec());
    }
    hash_u32_series(&series)
}

/// Fingerprint one paper-geometry run over every series the trace
/// records: per-queue length and within-bin maximum, per-port received,
/// sent and dropped counts, and the shared-buffer occupancy.
fn paper_trace_hash(seed: u64) -> u64 {
    let cfg = SimConfig::paper_default();
    let traffic = TrafficConfig::websearch_incast(cfg.num_ports, 0.5);
    let gt = Simulation::new(cfg, traffic, seed).run_ms(2300);
    let mut series: Vec<Vec<u32>> = Vec::new();
    for q in 0..gt.num_queues() {
        series.push(gt.queue_len_series(q).to_vec());
        series.push(gt.queue_max_series(q).to_vec());
    }
    for p in 0..gt.num_ports() {
        series.push(gt.received_series(p).to_vec());
        series.push(gt.sent_series(p).to_vec());
        series.push(gt.dropped_series(p).to_vec());
    }
    series.push(gt.buffer_occupancy_series().to_vec());
    hash_u32_series(&series)
}

/// Blessed fingerprints: `(workload, seed, fnv1a64)`.
const GOLDEN: [(&str, u64, u64); 9] = [
    ("websearch", 7, 0xd5be40c68ab1f7da),
    ("websearch", 21, 0xbb6602e86a8e1ae4),
    ("websearch", 1234, 0xb1c44732fcaaca17),
    ("incast", 7, 0x23b9b656f8a0e256),
    ("incast", 21, 0x5df30922ef7985f0),
    ("incast", 1234, 0xda8fd165acb223d6),
    ("mixed", 7, 0x584a42349dbceb61),
    ("mixed", 21, 0xca1efa96aa9d4b1b),
    ("mixed", 1234, 0x110b750ef2e7d235),
];

#[test]
fn golden_traces_match_blessed_hashes() {
    let bless = std::env::var("FMML_BLESS").is_ok();
    let mut failures = Vec::new();
    for (name, traffic) in workloads() {
        for seed in SEEDS {
            let got = trace_hash(&traffic, seed);
            if bless {
                println!("    (\"{name}\", {seed}, 0x{got:016x}),");
                continue;
            }
            let want = GOLDEN
                .iter()
                .find(|(n, s, _)| *n == name && *s == seed)
                .unwrap_or_else(|| panic!("no golden entry for {name}/{seed}"))
                .2;
            if got != want {
                failures.push(format!(
                    "{name}/seed {seed}: hash 0x{got:016x} != blessed 0x{want:016x}"
                ));
            }
        }
    }
    assert!(
        failures.is_empty(),
        "golden traces diverged (see header for the bless procedure):\n  {}",
        failures.join("\n  ")
    );
}

/// Blessed paper-geometry fingerprints: `(seed, fnv1a64)`.
const GOLDEN_PAPER: [(u64, u64); 3] = [
    (7, 0xdaf0d820299173b1),
    (21, 0x5d30e3788833cced),
    (1234, 0xe07cee03c95137e6),
];

#[test]
fn paper_geometry_traces_match_blessed_hashes() {
    let bless = std::env::var("FMML_BLESS").is_ok();
    let mut failures = Vec::new();
    for (seed, want) in GOLDEN_PAPER {
        let got = paper_trace_hash(seed);
        if bless {
            println!("    ({seed}, 0x{got:016x}),");
        } else if got != want {
            failures.push(format!(
                "seed {seed}: hash 0x{got:016x} != blessed 0x{want:016x}"
            ));
        }
    }
    assert!(
        failures.is_empty(),
        "paper-geometry traces diverged (see header for the bless procedure):\n  {}",
        failures.join("\n  ")
    );
}

#[test]
fn same_seed_same_trace_fresh_simulations() {
    // Run-to-run determinism inside one process (no blessed constants
    // involved): two independently constructed simulations at the same
    // seed fingerprint identically; a different seed must not.
    let (_, traffic) = workloads().remove(2);
    let a = trace_hash(&traffic, 99);
    let b = trace_hash(&traffic, 99);
    assert_eq!(a, b, "same seed produced different traces");
    let c = trace_hash(&traffic, 100);
    assert_ne!(a, c, "seed is ignored by the simulator");
}
