//! # fmml-bench — the `fmml bench` suites and the Criterion fixtures
//!
//! [`run_suite`] runs one of the [`SUITES`] at its default
//! configuration and returns the flat JSON report `fmml bench <suite>`
//! saves as `BENCH_<suite>.json` (see [`save`]). The suites share one
//! interval-stream builder ([`small_windows`] + [`interval_stream`]),
//! one serving model ([`serve_model`]) and one lockstep session client
//! ([`client`]). The Criterion bench targets regenerate the paper's
//! tables and figures from the fixture builders below (see DESIGN.md's
//! per-experiment index).

pub mod baseline;
pub mod cem_parallel;
pub mod client;
pub mod cluster;
pub mod obs;
pub mod recovery;
pub mod train;
pub mod wire;

use fmml_core::streaming::IntervalUpdate;
use fmml_core::transformer_imputer::{Scales, TransformerImputer};
use fmml_fm::cem::IntervalProblem;
use fmml_netsim::traffic::TrafficConfig;
use fmml_netsim::{GroundTruth, SimConfig, Simulation};
use fmml_telemetry::{windows_from_trace, PortWindow};
use std::io::Write;
use std::path::{Path, PathBuf};
use std::sync::Arc;

/// The suites `fmml bench` runs, in the order the usage text lists them.
pub const SUITES: [&str; 5] = ["train", "obs", "recovery", "cluster", "wire"];

/// A finished suite: its flat JSON report and a human summary.
pub struct SuiteReport {
    pub json: String,
    pub summary: String,
}

/// Run one of [`SUITES`] at its default configuration (`None` for an
/// unknown name). The serving suites panic on a broken contract (a lost
/// reply, a fingerprint divergence, a shipped violation); `Err` carries
/// the contracts a suite reports instead of asserting.
pub fn run_suite(suite: &str) -> Option<Result<SuiteReport, String>> {
    let report = |json, summary| Ok(SuiteReport { json, summary });
    Some(match suite {
        "train" => {
            // 800 simulated ms, seed 7, 3 epochs.
            let (_, r) = train::bench_train(800, 7, 3);
            r.contract().and_then(|()| report(r.to_json(), r.summary()))
        }
        "obs" => {
            let r = obs::bench_obs(&obs::ObsBenchConfig::default());
            r.contract().and_then(|()| report(r.to_json(), r.summary()))
        }
        "recovery" => {
            let r = recovery::bench_recovery(serve_model(), &Default::default());
            report(r.to_json(), r.summary())
        }
        "cluster" => {
            let r = cluster::bench_cluster(serve_model(), &Default::default());
            report(r.to_json(), r.summary())
        }
        "wire" => {
            let r = wire::bench_wire(serve_model(), &Default::default());
            report(r.to_json(), r.summary())
        }
        _ => return None,
    })
}

/// Write `json` as `BENCH_<bench>.json` into `dir`, creating `dir` if
/// needed; returns the path written.
pub fn save(dir: &Path, bench: &str, json: &str) -> std::io::Result<PathBuf> {
    std::fs::create_dir_all(dir)?;
    let path = dir.join(format!("BENCH_{bench}.json"));
    let mut f = std::fs::File::create(&path)?;
    writeln!(f, "{json}")?;
    Ok(path)
}

/// The model the serving suites run: the deterministic untrained
/// imputer `fmml serve` starts without `--model` (seed 3), scaled for
/// the `SimConfig::small()` traces they replay.
pub fn serve_model() -> Arc<TransformerImputer> {
    untrained_model(3)
}

/// A deterministic untrained imputer scaled for `SimConfig::small()`.
pub fn untrained_model(seed: u64) -> Arc<TransformerImputer> {
    Arc::new(TransformerImputer::new(
        seed,
        Scales {
            qlen: SimConfig::small().buffer_packets as f32,
            count: 830.0,
        },
    ))
}

/// Active windows of a seeded `SimConfig::small()` trace at 0.6 load:
/// `window_len`-bin windows (stride `window_len`) of `interval_len`-bin
/// intervals.
pub fn small_windows(
    ms: u64,
    seed: u64,
    window_len: usize,
    interval_len: usize,
) -> Vec<PortWindow> {
    let cfg = SimConfig::small();
    let gt = Simulation::new(
        cfg.clone(),
        TrafficConfig::websearch_incast(cfg.num_ports, 0.6),
        seed,
    )
    .run_ms(ms);
    windows_from_trace(&gt, window_len, interval_len, window_len)
        .into_iter()
        .filter(|w| w.has_activity())
        .collect()
}

/// The interval stream of the first active port in `ws`: its windows'
/// intervals in order, cycled until there are `n`. Returns the updates,
/// the port and its queue count.
pub fn interval_stream(ws: &[PortWindow], n: usize) -> (Vec<IntervalUpdate>, usize, usize) {
    let first = ws.first().expect("trace has no active windows");
    let mut updates = Vec::with_capacity(n);
    'outer: loop {
        for w in ws.iter().filter(|w| w.port == first.port) {
            for k in 0..w.intervals() {
                if updates.len() >= n {
                    break 'outer;
                }
                updates.push(IntervalUpdate::from_window(w, k));
            }
        }
    }
    (updates, first.port, first.num_queues())
}

/// A paper-shaped trace: 8-port switch, websearch+incast at 0.5 load.
pub fn paper_trace(ms: u64, seed: u64) -> GroundTruth {
    let cfg = SimConfig::paper_default();
    let traffic = TrafficConfig::websearch_incast(cfg.num_ports, 0.5);
    Simulation::new(cfg, traffic, seed).run_ms(ms)
}

/// Paper-shaped windows (300 bins / 50-bin intervals), active only.
pub fn paper_windows(ms: u64, seed: u64) -> Vec<PortWindow> {
    windows_from_trace(&paper_trace(ms, seed), 300, 50, 300)
        .into_iter()
        .filter(|w| w.has_activity())
        .collect()
}

/// A realistic single-interval CEM problem taken from a real window: the
/// target is the ground truth perturbed (so C1/C2/C3 are all violated and
/// every CEM code path runs).
pub fn cem_interval(len: usize) -> IntervalProblem {
    let ws = paper_windows(400, 99);
    let w = ws
        .iter()
        .max_by_key(|w| w.peak_max())
        .expect("active window");
    let l = w.interval_len.min(len);
    // The interval with the largest max.
    let k = (0..w.intervals())
        .max_by_key(|&k| w.maxes.iter().map(|m| m[k]).max().unwrap())
        .unwrap();
    IntervalProblem {
        len: l,
        target: (0..w.num_queues())
            .map(|q| {
                w.truth[q][k * w.interval_len..k * w.interval_len + l]
                    .iter()
                    .map(|&v| (v * 0.8 + 1.0).round() as i64) // perturb
                    .collect()
            })
            .collect(),
        maxes: (0..w.num_queues()).map(|q| w.maxes[q][k]).collect(),
        samples: (0..w.num_queues())
            .map(|q| {
                if l == w.interval_len {
                    w.samples[q][k]
                } else {
                    w.truth[q][k * w.interval_len + l - 1] as u32
                }
            })
            .collect(),
        m_out: w.sent[k],
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fixtures_are_usable() {
        let ws = paper_windows(350, 1);
        assert!(!ws.is_empty());
        let p = cem_interval(50);
        assert_eq!(p.len, 50);
        assert!(p.measurements_consistent());
    }
}
