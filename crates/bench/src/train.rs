//! The three-pass training benchmark behind `BENCH_train.json`.
//!
//! [`bench_train`] trains the *same* transformer imputer on the *same*
//! windows three times:
//!
//! 1. **reference** — the scalar [`KernelMode::Reference`] GEMMs with
//!    tape pooling disabled: the pre-kernel-rewrite substrate, and the
//!    ground truth for the equivalence check;
//! 2. **blocked** — the tiled, transpose-cached kernels
//!    ([`KernelMode::Blocked`], the default) with the arena-pooled tape,
//!    serial batches;
//! 3. **blocked+parallel** — the same kernels with `cfg.parallel = true`
//!    (rayon data-parallel batches) and [`KernelMode::BlockedParallel`]
//!    row sharding armed for any GEMM crossing the FMA threshold.
//!
//! Every kernel follows the canonical summation-order contract
//! (`crates/nn/src/kernel.rs`), so all three passes must land on
//! bit-identical parameters, imputed series, and epoch losses. The
//! report fingerprints each pass (FNV-1a over a length-prefixed `u32`
//! encoding of every `f32::to_bits`) and CI asserts `identical == true`,
//! `rollbacks == 0`, and a floor on `blocked_speedup`.

use fmml_core::train::{train, EpochStats, LossKind, TrainConfig};
use fmml_core::transformer_imputer::{Scales, TransformerImputer};
use fmml_fm::cem;
use fmml_nn::kernel::{self, with_mode, KernelMode};
use fmml_nn::tape;
use fmml_telemetry::PortWindow;
use std::time::Instant;

/// Training windows for the benchmark: the small 8→4-port sim geometry
/// with 60-bin windows (10-bin intervals), active ports only — the same
/// shape the training-loop tests use, big enough that the encoder GEMMs
/// dominate the wall-clock.
pub fn train_windows(ms: u64, seed: u64) -> Vec<PortWindow> {
    crate::small_windows(ms, seed, 60, 10)
}

/// Normalization scales matching the small sim geometry.
pub fn train_scales() -> Scales {
    Scales {
        qlen: 260.0,
        count: 830.0,
    }
}

/// FNV fingerprint of everything training is supposed to determine:
/// every parameter tensor, the imputed series of the probe window, and
/// the per-epoch mean losses — all as raw `f32` bits, so a 1-ulp drift
/// anywhere flips the hash.
pub fn fingerprint(model: &TransformerImputer, imputed: &[f32], stats: &[EpochStats]) -> u64 {
    let mut series: Vec<Vec<u32>> = Vec::with_capacity(model.store.len() + 2);
    for id in 0..model.store.len() {
        series.push(
            model
                .store
                .value(id)
                .data
                .iter()
                .map(|v| v.to_bits())
                .collect(),
        );
    }
    series.push(imputed.iter().map(|v| v.to_bits()).collect());
    series.push(stats.iter().map(|s| s.mean_loss.to_bits()).collect());
    cem::hash_u32_series(&series)
}

/// One `BENCH_train.json` payload.
#[derive(Debug, Clone, PartialEq)]
pub struct TrainBenchReport {
    pub epochs: usize,
    pub windows: usize,
    /// Training examples per epoch (window × queue pairs).
    pub examples: usize,
    /// Wall-clock of the scalar-reference, pool-disabled pass.
    pub reference_ns: u64,
    /// Wall-clock of the blocked-kernel, pooled-tape serial pass.
    pub blocked_ns: u64,
    /// Wall-clock of the blocked + rayon-parallel pass.
    pub parallel_ns: u64,
    /// `reference_ns / blocked_ns` — the single-thread kernel win.
    pub blocked_speedup: f64,
    /// `reference_ns / parallel_ns` — the full tuned-path win.
    pub parallel_speedup: f64,
    /// FNV fingerprint of the reference pass (params + imputed + losses).
    pub reference_hash: u64,
    /// Same fingerprint for the blocked pass.
    pub blocked_hash: u64,
    /// Same fingerprint for the parallel pass.
    pub parallel_hash: u64,
    /// All three fingerprints agree — the determinism contract.
    pub identical: bool,
    /// Epochs rolled back by the non-finite guard across all passes
    /// (must be 0 on a clean run).
    pub rollbacks: u64,
    /// GEMM FMAs of the blocked pass (work volume, mode-invariant).
    pub fmas: u64,
    /// Row shards dispatched during the parallel pass.
    pub parallel_shards: u64,
    /// Tape-buffer pool hit rate of the blocked pass.
    pub pool_hit_rate: f64,
}

impl TrainBenchReport {
    /// Deterministic JSON (fixed key order).
    pub fn to_json(&self) -> String {
        let mut v = serde_json::Value::Object(Vec::new());
        v["bench"] = serde_json::Value::String("train".into());
        v["epochs"] = serde_json::Value::U64(self.epochs as u64);
        v["windows"] = serde_json::Value::U64(self.windows as u64);
        v["examples"] = serde_json::Value::U64(self.examples as u64);
        v["reference_ns"] = serde_json::Value::U64(self.reference_ns);
        v["blocked_ns"] = serde_json::Value::U64(self.blocked_ns);
        v["parallel_ns"] = serde_json::Value::U64(self.parallel_ns);
        v["blocked_speedup"] = serde_json::Value::F64(self.blocked_speedup);
        v["parallel_speedup"] = serde_json::Value::F64(self.parallel_speedup);
        v["reference_hash"] = serde_json::Value::String(format!("{:016x}", self.reference_hash));
        v["blocked_hash"] = serde_json::Value::String(format!("{:016x}", self.blocked_hash));
        v["parallel_hash"] = serde_json::Value::String(format!("{:016x}", self.parallel_hash));
        v["identical"] = serde_json::Value::Bool(self.identical);
        v["rollbacks"] = serde_json::Value::U64(self.rollbacks);
        v["fmas"] = serde_json::Value::U64(self.fmas);
        v["parallel_shards"] = serde_json::Value::U64(self.parallel_shards);
        v["pool_hit_rate"] = serde_json::Value::F64(self.pool_hit_rate);
        v.to_string()
    }

    /// The determinism contract: all three passes agree bitwise and no
    /// epoch rolled back.
    pub fn contract(&self) -> Result<(), String> {
        if !self.identical {
            return Err(format!(
                "kernel passes diverged: reference={:016x} blocked={:016x} parallel={:016x}",
                self.reference_hash, self.blocked_hash, self.parallel_hash
            ));
        }
        if self.rollbacks > 0 {
            return Err(format!(
                "{} epoch(s) rolled back during a clean benchmark run",
                self.rollbacks
            ));
        }
        Ok(())
    }

    /// One-line human summary.
    pub fn summary(&self) -> String {
        format!(
            "ref={:.2}ms blocked={:.2}ms ({:.2}x) parallel={:.2}ms ({:.2}x) \
             identical={} rollbacks={} pool_hit_rate={:.1}%",
            self.reference_ns as f64 / 1e6,
            self.blocked_ns as f64 / 1e6,
            self.blocked_speedup,
            self.parallel_ns as f64 / 1e6,
            self.parallel_speedup,
            self.identical,
            self.rollbacks,
            self.pool_hit_rate * 100.0,
        )
    }
}

fn cfg(epochs: usize, seed: u64, parallel: bool) -> TrainConfig {
    TrainConfig {
        epochs,
        lr: 5e-3,
        batch_size: 8,
        loss: LossKind::Emd,
        kal: None,
        seed,
        clip_norm: 5.0,
        parallel,
        nan_loss_epoch: None,
    }
}

/// Run the three passes and build the report. Returns the **blocked**
/// pass's model (all passes are asserted identical anyway) plus the
/// report.
pub fn bench_train(ms: u64, seed: u64, epochs: usize) -> (TransformerImputer, TrainBenchReport) {
    let ws = train_windows(ms, seed);
    assert!(!ws.is_empty(), "no active windows at ms={ms} seed={seed}");
    let scales = train_scales();
    let probe = &ws[0];
    let examples: usize = ws.iter().map(|w| w.num_queues()).sum();

    // Pass 1 — reference: scalar GEMMs, pooling disabled, serial
    // batches. This is the historical substrate the speedups are
    // measured against.
    let t0 = Instant::now();
    let (m_ref, s_ref) = with_mode(KernelMode::Reference, || {
        train(&ws, scales, &cfg(epochs, seed, false))
    });
    let reference_ns = t0.elapsed().as_nanos() as u64;
    let q_ref = with_mode(KernelMode::Reference, || m_ref.impute_queue(probe, 0));

    // Pass 2 — blocked: tiled kernels + pooled tape, serial batches.
    let k0 = kernel::stats();
    let p0 = tape::stats();
    let t1 = Instant::now();
    let (m_blk, s_blk) = with_mode(KernelMode::Blocked, || {
        train(&ws, scales, &cfg(epochs, seed, false))
    });
    let blocked_ns = t1.elapsed().as_nanos() as u64;
    let q_blk = with_mode(KernelMode::Blocked, || m_blk.impute_queue(probe, 0));
    let kd = kernel::stats() - k0;
    let pd = tape::stats() - p0;

    // Pass 3 — blocked + parallel: rayon data-parallel batches, row
    // sharding armed for threshold-crossing GEMMs.
    let k1 = kernel::stats();
    let t2 = Instant::now();
    let (m_par, s_par) = with_mode(KernelMode::BlockedParallel, || {
        train(&ws, scales, &cfg(epochs, seed, true))
    });
    let parallel_ns = t2.elapsed().as_nanos() as u64;
    let q_par = with_mode(KernelMode::BlockedParallel, || m_par.impute_queue(probe, 0));
    let kp = kernel::stats() - k1;

    let reference_hash = fingerprint(&m_ref, &q_ref, &s_ref);
    let blocked_hash = fingerprint(&m_blk, &q_blk, &s_blk);
    let parallel_hash = fingerprint(&m_par, &q_par, &s_par);
    let rollbacks = [&s_ref, &s_blk, &s_par]
        .iter()
        .flat_map(|s| s.iter())
        .filter(|s| s.rolled_back)
        .count() as u64;
    let report = TrainBenchReport {
        epochs,
        windows: ws.len(),
        examples,
        reference_ns,
        blocked_ns,
        parallel_ns,
        blocked_speedup: reference_ns as f64 / blocked_ns.max(1) as f64,
        parallel_speedup: reference_ns as f64 / parallel_ns.max(1) as f64,
        reference_hash,
        blocked_hash,
        parallel_hash,
        identical: reference_hash == blocked_hash && reference_hash == parallel_hash,
        rollbacks,
        fmas: kd.fmas,
        parallel_shards: kp.parallel_shards,
        pool_hit_rate: pd.buf_hits as f64 / (pd.buf_hits + pd.buf_misses).max(1) as f64,
    };
    (m_blk, report)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bench_train_passes_are_bitwise_identical() {
        let (model, report) = bench_train(120, 7, 2);
        assert!(report.identical, "kernel passes diverged: {report:?}");
        assert_eq!(report.rollbacks, 0, "clean run must not roll back");
        assert!(report.windows > 0 && report.examples >= report.windows);
        assert!(report.fmas > 0, "blocked pass did no GEMM work");
        // The model returned is the blocked pass's — its fingerprint is
        // the blocked hash.
        let q = model.impute_queue(&train_windows(120, 7)[0], 0);
        assert!(!q.is_empty());
        assert!(q.iter().all(|v| v.is_finite()));
    }

    #[test]
    fn report_json_has_the_ci_asserted_fields() {
        let report = TrainBenchReport {
            epochs: 3,
            windows: 4,
            examples: 16,
            reference_ns: 4_000_000,
            blocked_ns: 1_000_000,
            parallel_ns: 800_000,
            blocked_speedup: 4.0,
            parallel_speedup: 5.0,
            reference_hash: 0xdead_beef,
            blocked_hash: 0xdead_beef,
            parallel_hash: 0xdead_beef,
            identical: true,
            rollbacks: 0,
            fmas: 123_456,
            parallel_shards: 7,
            pool_hit_rate: 0.97,
        };
        let j = report.to_json();
        assert!(j.contains("\"bench\":\"train\""), "{j}");
        assert!(j.contains("\"identical\":true"), "{j}");
        assert!(j.contains("\"rollbacks\":0"), "{j}");
        assert!(j.contains("\"blocked_speedup\":4"), "{j}");
        assert!(j.contains("\"parallel_speedup\":5"), "{j}");
        assert!(j.contains("\"reference_hash\":\"00000000deadbeef\""), "{j}");
        assert!(report.summary().contains("(4.00x)"), "{}", report.summary());
    }
}
