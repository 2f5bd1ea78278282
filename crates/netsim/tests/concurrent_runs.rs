//! Simulations on concurrent threads are the same as simulations run one
//! after another: each trace equals its serial twin, and the global
//! `netsim.*` counters advance by exactly the serial totals.
//!
//! This binary holds one test so that no other simulation in the process
//! moves the global counters while it measures them.

use fmml_netsim::buffer::BufferPolicyKind;
use fmml_netsim::traffic::TrafficConfig;
use fmml_netsim::{GroundTruth, SimConfig, Simulation};
use std::sync::Barrier;

const COUNTERS: [&str; 4] = [
    "netsim.events",
    "netsim.pkts_enqueued",
    "netsim.pkts_dropped.buffer_full",
    "netsim.pkts_dropped.threshold",
];

/// The current value of every `netsim.*` counter (0 if never bumped).
fn counters() -> [u64; 4] {
    let report = fmml_obs::snapshot();
    COUNTERS.map(|name| {
        report
            .counters
            .iter()
            .find(|(n, _)| n == name)
            .map_or(0, |&(_, v)| v)
    })
}

fn delta(after: [u64; 4], before: [u64; 4]) -> [u64; 4] {
    std::array::from_fn(|i| after[i] - before[i])
}

/// The small geometry at the benchmark's small-workload load and segment
/// length. Odd seeds share a 60-packet buffer completely, so they drop
/// for a full buffer where the default policy drops at its threshold.
fn simulate(seed: u64) -> GroundTruth {
    let mut cfg = SimConfig::small();
    if seed % 2 == 1 {
        cfg.buffer_packets = 60;
        cfg.buffer_policy = BufferPolicyKind::CompleteSharing;
    }
    let traffic = TrafficConfig::websearch_incast(cfg.num_ports, 0.6);
    Simulation::new(cfg, traffic, seed).run_ms(460)
}

#[test]
fn concurrent_runs_equal_serial_runs() {
    let seeds = [1u64, 2, 3, 4];

    let before = counters();
    let serial: Vec<GroundTruth> = seeds.iter().map(|&s| simulate(s)).collect();
    let serial_counts = delta(counters(), before);
    assert!(
        serial_counts.iter().all(|&n| n > 0),
        "{COUNTERS:?} did not all move: {serial_counts:?}"
    );

    let before = counters();
    let start = Barrier::new(seeds.len());
    let concurrent: Vec<GroundTruth> = std::thread::scope(|s| {
        let handles: Vec<_> = seeds
            .iter()
            .map(|&seed| {
                let start = &start;
                s.spawn(move || {
                    start.wait();
                    simulate(seed)
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });
    let concurrent_counts = delta(counters(), before);

    for ((seed, a), b) in seeds.iter().zip(&serial).zip(&concurrent) {
        assert!(a == b, "seed {seed}: concurrent trace differs from serial");
    }
    assert_eq!(
        concurrent_counts, serial_counts,
        "counter deltas {COUNTERS:?}: concurrent vs serial"
    );
}
