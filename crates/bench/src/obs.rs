//! The tracing-overhead differential benchmark behind `BENCH_obs.json`.
//!
//! Span tracing's contract is *zero-cost-when-off, cheap-when-on*:
//! every entry point folds to one relaxed atomic load when disabled, and
//! an enabled run adds only a handful of seqlock ring writes per
//! request. [`bench_obs`] measures both halves of the claim on the two
//! hot paths the tracing instruments:
//!
//! * **serve path** — an offline [`StreamingImputer`] replay (model
//!   forward + CEM ladder enforcement, `jobs > 1` so the rayon
//!   context-propagation bridge is exercised), one `bench.interval`
//!   root span per push when tracing is on;
//! * **train path** — a `BlockedParallel` training pass (data-parallel
//!   batches + row-sharded GEMMs), `train.epoch` spans plus per-shard
//!   `nn.gemm_shard` spans when on.
//!
//! Off/on passes run interleaved `repeats` times and the minimum
//! wall-clock per mode is compared (min-of-N strips scheduler noise the
//! way Criterion's lower bound does). Every pass is fingerprinted
//! (FNV-1a over the full output bit pattern), so the report also proves
//! tracing never perturbs a single output bit. CI asserts
//! `identical == true` and `max_overhead <= 1.05` on the committed
//! report.

use crate::train::{fingerprint, train_scales, train_windows};
use fmml_core::streaming::{IntervalUpdate, StreamOptions, StreamingImputer};
use fmml_core::train::{train, LossKind, TrainConfig};
use fmml_core::transformer_imputer::TransformerImputer;
use fmml_fm::cem::{self, CemEngine, LadderConfig};
use fmml_nn::kernel::{with_mode, KernelMode};
use fmml_obs::trace;
use fmml_telemetry::PortWindow;
use std::time::Instant;

/// Benchmark knobs.
#[derive(Debug, Clone)]
pub struct ObsBenchConfig {
    /// Simulated milliseconds feeding the telemetry windows.
    pub sim_ms: u64,
    pub seed: u64,
    /// Serve-path replay length (interval pushes).
    pub serve_intervals: usize,
    /// Interval-level CEM parallelism for the serve path (>1 exercises
    /// the explicit rayon context hand-off).
    pub jobs: usize,
    /// Train-path epochs.
    pub epochs: usize,
    /// Interleaved off/on repetitions; min wall-clock per mode wins.
    pub repeats: usize,
}

impl Default for ObsBenchConfig {
    fn default() -> ObsBenchConfig {
        ObsBenchConfig {
            sim_ms: 480,
            seed: 23,
            serve_intervals: 120,
            jobs: 2,
            epochs: 2,
            repeats: 3,
        }
    }
}

/// One `BENCH_obs.json` payload.
#[derive(Debug, Clone, PartialEq)]
pub struct ObsBenchReport {
    pub repeats: usize,
    pub serve_intervals: usize,
    pub epochs: usize,
    /// Min wall-clock of the serve path with tracing off / on.
    pub serve_off_ns: u64,
    pub serve_on_ns: u64,
    /// `serve_on_ns / serve_off_ns`.
    pub serve_overhead: f64,
    /// Min wall-clock of the train path with tracing off / on.
    pub train_off_ns: u64,
    pub train_on_ns: u64,
    pub train_overhead: f64,
    /// The worse of the two ratios — what CI gates at ≤ 1.05.
    pub max_overhead: f64,
    pub serve_hash_off: u64,
    pub serve_hash_on: u64,
    pub train_hash_off: u64,
    pub train_hash_on: u64,
    /// All off/on fingerprints agree — tracing perturbed nothing.
    pub identical: bool,
    /// Spans recorded across the traced passes.
    pub spans: u64,
    /// Ring evictions across the traced passes.
    pub dropped: u64,
}

impl ObsBenchReport {
    /// Deterministic JSON (fixed key order).
    pub fn to_json(&self) -> String {
        let mut v = serde_json::Value::Object(Vec::new());
        v["bench"] = serde_json::Value::String("obs".into());
        v["repeats"] = serde_json::Value::U64(self.repeats as u64);
        v["serve_intervals"] = serde_json::Value::U64(self.serve_intervals as u64);
        v["epochs"] = serde_json::Value::U64(self.epochs as u64);
        v["serve_off_ns"] = serde_json::Value::U64(self.serve_off_ns);
        v["serve_on_ns"] = serde_json::Value::U64(self.serve_on_ns);
        v["serve_overhead"] = serde_json::Value::F64(self.serve_overhead);
        v["train_off_ns"] = serde_json::Value::U64(self.train_off_ns);
        v["train_on_ns"] = serde_json::Value::U64(self.train_on_ns);
        v["train_overhead"] = serde_json::Value::F64(self.train_overhead);
        v["max_overhead"] = serde_json::Value::F64(self.max_overhead);
        v["serve_hash_off"] = serde_json::Value::String(format!("{:016x}", self.serve_hash_off));
        v["serve_hash_on"] = serde_json::Value::String(format!("{:016x}", self.serve_hash_on));
        v["train_hash_off"] = serde_json::Value::String(format!("{:016x}", self.train_hash_off));
        v["train_hash_on"] = serde_json::Value::String(format!("{:016x}", self.train_hash_on));
        v["identical"] = serde_json::Value::Bool(self.identical);
        v["spans"] = serde_json::Value::U64(self.spans);
        v["dropped"] = serde_json::Value::U64(self.dropped);
        v.to_string()
    }

    /// The determinism contract: tracing changed no output bit.
    pub fn contract(&self) -> Result<(), String> {
        if self.identical {
            return Ok(());
        }
        Err(format!(
            "tracing perturbed outputs: serve {:016x}/{:016x} train {:016x}/{:016x}",
            self.serve_hash_off, self.serve_hash_on, self.train_hash_off, self.train_hash_on
        ))
    }

    /// One-line human summary.
    pub fn summary(&self) -> String {
        format!(
            "serve {:.2}ms→{:.2}ms ({:.3}x) train {:.2}ms→{:.2}ms ({:.3}x) \
             identical={} spans={} dropped={}",
            self.serve_off_ns as f64 / 1e6,
            self.serve_on_ns as f64 / 1e6,
            self.serve_overhead,
            self.train_off_ns as f64 / 1e6,
            self.train_on_ns as f64 / 1e6,
            self.train_overhead,
            self.identical,
            self.spans,
            self.dropped,
        )
    }
}

/// One timed serve-path pass: replay every update through a fresh
/// streaming imputer, roots a `bench.interval` span per push when
/// tracing is on, and fingerprints every imputed series.
fn serve_pass(
    model: &TransformerImputer,
    updates: &[IntervalUpdate],
    bc: &ObsBenchConfig,
    traced: bool,
) -> (u64, u64) {
    let opts = StreamOptions {
        ladder: LadderConfig {
            engine: CemEngine::Fast,
            ..LadderConfig::default()
        },
        jobs: bc.jobs,
        cache: None,
    };
    let first = &updates[0];
    let mut imp = StreamingImputer::with_options(
        model,
        opts,
        first.port,
        first.samples.len(),
        // Geometry matches `train_windows`: 10-bin intervals, 3-interval
        // sliding window.
        10,
        3,
    );
    let mut series: Vec<Vec<u32>> = Vec::new();
    let t0 = Instant::now();
    for u in updates {
        let out = if traced {
            let _root = trace::root("bench.interval");
            imp.push(u.clone())
        } else {
            imp.push(u.clone())
        };
        if let Some(ii) = out {
            series.extend(ii.series);
        }
    }
    let ns = t0.elapsed().as_nanos() as u64;
    assert!(!series.is_empty(), "replay produced no imputed intervals");
    (ns, cem::hash_u32_series(&series))
}

/// One timed train-path pass: `BlockedParallel` kernels, data-parallel
/// batches, full fingerprint (params + probe imputation + losses).
fn train_pass(ws: &[PortWindow], bc: &ObsBenchConfig) -> (u64, u64) {
    let cfg = TrainConfig {
        epochs: bc.epochs,
        lr: 5e-3,
        batch_size: 8,
        loss: LossKind::Emd,
        kal: None,
        seed: bc.seed,
        clip_norm: 5.0,
        parallel: true,
        nan_loss_epoch: None,
    };
    let t0 = Instant::now();
    let (m, s) = with_mode(KernelMode::BlockedParallel, || {
        train(ws, train_scales(), &cfg)
    });
    let ns = t0.elapsed().as_nanos() as u64;
    let q = with_mode(KernelMode::BlockedParallel, || m.impute_queue(&ws[0], 0));
    (ns, fingerprint(&m, &q, &s))
}

/// Run the interleaved off/on differential; restores the process-global
/// tracing switch to its prior state before returning. Panics if any
/// pass's fingerprint diverges (tracing must never touch outputs).
pub fn bench_obs(bc: &ObsBenchConfig) -> ObsBenchReport {
    assert!(bc.repeats >= 1);
    let was_enabled = trace::enabled();
    let ws = train_windows(bc.sim_ms, bc.seed);
    let (updates, _, _) = crate::interval_stream(&ws, bc.serve_intervals);
    let model = {
        // A tiny trained model so the serve path's forward pass does
        // real GEMM work (an untrained model would too, but training it
        // here keeps the replay outputs non-degenerate).
        let cfg = TrainConfig {
            epochs: 1,
            lr: 5e-3,
            batch_size: 8,
            loss: LossKind::Emd,
            kal: None,
            seed: bc.seed,
            clip_norm: 5.0,
            parallel: false,
            nan_loss_epoch: None,
        };
        train(&ws, train_scales(), &cfg).0
    };

    let mut serve_off_ns = u64::MAX;
    let mut serve_on_ns = u64::MAX;
    let mut train_off_ns = u64::MAX;
    let mut train_on_ns = u64::MAX;
    let mut serve_hash_off = 0u64;
    let mut serve_hash_on = 0u64;
    let mut train_hash_off = 0u64;
    let mut train_hash_on = 0u64;
    let spans0 = trace::TRACE_SPANS.get();
    let dropped0 = trace::TRACE_DROPPED.get();
    for r in 0..bc.repeats {
        trace::set_enabled(false);
        let (ns, h) = serve_pass(&model, &updates, bc, false);
        serve_off_ns = serve_off_ns.min(ns);
        serve_hash_off = h;
        let (ns, h) = train_pass(&ws, bc);
        train_off_ns = train_off_ns.min(ns);
        train_hash_off = h;

        trace::set_enabled(true);
        let (ns, h) = serve_pass(&model, &updates, bc, true);
        serve_on_ns = serve_on_ns.min(ns);
        serve_hash_on = h;
        let (ns, h) = train_pass(&ws, bc);
        train_on_ns = train_on_ns.min(ns);
        train_hash_on = h;

        assert_eq!(
            serve_hash_off, serve_hash_on,
            "serve outputs diverged under tracing (repeat {r})"
        );
        assert_eq!(
            train_hash_off, train_hash_on,
            "train outputs diverged under tracing (repeat {r})"
        );
    }
    trace::set_enabled(was_enabled);

    let serve_overhead = serve_on_ns as f64 / serve_off_ns.max(1) as f64;
    let train_overhead = train_on_ns as f64 / train_off_ns.max(1) as f64;
    ObsBenchReport {
        repeats: bc.repeats,
        serve_intervals: bc.serve_intervals,
        epochs: bc.epochs,
        serve_off_ns,
        serve_on_ns,
        serve_overhead,
        train_off_ns,
        train_on_ns,
        train_overhead,
        max_overhead: serve_overhead.max(train_overhead),
        serve_hash_off,
        serve_hash_on,
        train_hash_off,
        train_hash_on,
        identical: serve_hash_off == serve_hash_on && train_hash_off == train_hash_on,
        spans: trace::TRACE_SPANS.get() - spans0,
        dropped: trace::TRACE_DROPPED.get() - dropped0,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tracing_never_perturbs_outputs() {
        let bc = ObsBenchConfig {
            sim_ms: 160,
            serve_intervals: 24,
            epochs: 1,
            repeats: 1,
            ..ObsBenchConfig::default()
        };
        let report = bench_obs(&bc);
        assert!(report.identical, "outputs diverged: {report:?}");
        assert!(report.spans > 0, "traced pass recorded no spans");
        // No overhead-ratio assertion here: a 1-repeat tiny pass is too
        // noisy for a wall-clock gate; CI gates the committed report.
        let j = report.to_json();
        assert!(j.contains("\"bench\":\"obs\""), "{j}");
        assert!(j.contains("\"identical\":true"), "{j}");
        assert!(j.contains("\"max_overhead\""), "{j}");
    }
}
