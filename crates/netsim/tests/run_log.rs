//! The `netsim.run` log event reports the run's own event count, also
//! while other simulations run on other threads.
//!
//! This binary holds one test: it installs the process-global log sink,
//! and every simulation in the process writes to it.

use fmml_netsim::traffic::TrafficConfig;
use fmml_netsim::{SimConfig, Simulation};
use fmml_obs::RunLog;
use std::sync::Barrier;

/// Run `ms` milliseconds of the small geometry at seed `ms`.
fn simulate(ms: u64) {
    let cfg = SimConfig::small();
    let traffic = TrafficConfig::websearch_incast(cfg.num_ports, 0.6);
    Simulation::new(cfg, traffic, ms).run_ms(ms);
}

/// The `events` field of every `netsim.run` line with `sim_ms == ms`.
fn logged_events(log: &str, ms: u64) -> Vec<u64> {
    let key = format!("\"sim_ms\":{ms},");
    log.lines()
        .filter(|l| l.contains("\"event\":\"netsim.run\"") && l.contains(&key))
        .map(|l| {
            let v = &l[l.find("\"events\":").expect("events field") + 9..];
            v[..v.find(['}', ',']).unwrap()].parse().unwrap()
        })
        .collect()
}

#[test]
fn run_event_counts_only_its_own_events_under_concurrency() {
    let path =
        std::env::temp_dir().join(format!("fmml_netsim_runlog_{}.jsonl", std::process::id()));
    let _ = std::fs::remove_file(&path);
    RunLog::init_file(path.to_str().unwrap()).unwrap();

    // Alone, then both at once: the two lengths tell the lines apart.
    let (a, b) = (400, 401);
    simulate(a);
    simulate(b);
    let start = Barrier::new(2);
    std::thread::scope(|s| {
        for ms in [a, b] {
            let start = &start;
            s.spawn(move || {
                start.wait();
                simulate(ms);
            });
        }
    });

    let log = std::fs::read_to_string(&path).unwrap();
    std::fs::remove_file(&path).ok();
    for ms in [a, b] {
        let events = logged_events(&log, ms);
        assert_eq!(events.len(), 2, "{ms} ms: {log}");
        assert!(events[0] > 0, "{ms} ms: no events");
        assert_eq!(
            events[1], events[0],
            "{ms} ms: concurrent run logged {} events, alone {}",
            events[1], events[0]
        );
    }
}
