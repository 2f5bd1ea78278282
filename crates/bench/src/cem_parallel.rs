//! The sequential-vs-parallel CEM enforcement benchmark behind
//! `BENCH_cem_parallel.json`.
//!
//! [`bench_ladder`] runs the *same* batch of `(constraints, prediction)`
//! items three times through [`fmml_fm::cem`]:
//!
//! 1. **reference** — sequential, uncached (`jobs = 1`, no cache): the
//!    historical code path and the ground truth for the equivalence
//!    check;
//! 2. **tuned, cold** — `jobs` workers sharing a fresh
//!    [`SolutionCache`]: the cold-start cost of the parallel + memoized
//!    path (hits come only from intra-batch duplicate intervals);
//! 3. **tuned, steady** — the same batch again with the now-warm cache:
//!    the steady-state regime of the paper's always-on 50 ms inference
//!    loop, where recurring interval problems are answered from memory.
//!
//! It then asserts all three runs' corrected windows and per-interval
//! degradation levels hash identically (FNV-1a over a length-prefixed
//! encoding — any divergence is a bug, not a tolerance question) and
//! emits a [`CemParallelReport`] with the wall-clocks, both speedups,
//! and the cache hit statistics of each tuned pass. CI consumes the
//! JSON via its asserts: `identical == true`, `cache_hits > 0`,
//! `violations == 0` (the last from the caller), and — on multi-core
//! runners — a floor on `speedup`.

use fmml_fm::cem::{
    self, enforce_degraded_batch, EnforceOptions, LadderConfig, LadderOutcome, SolutionCache,
};
use fmml_fm::WindowConstraints;
use std::time::Instant;

/// One `BENCH_cem_parallel.json` payload.
#[derive(Debug, Clone, PartialEq)]
pub struct CemParallelReport {
    /// Worker threads of the tuned run.
    pub jobs: usize,
    pub windows: usize,
    pub intervals: usize,
    /// Wall-clock of the sequential, uncached reference pass.
    pub sequential_ns: u64,
    /// Wall-clock of the parallel, cold-cache pass.
    pub parallel_ns: u64,
    /// Wall-clock of the parallel, warm-cache (steady-state) pass.
    pub steady_ns: u64,
    /// `sequential_ns / parallel_ns` — the cold-start speedup (≥ 1.0
    /// when the tuned path wins; needs real cores and/or intra-batch
    /// duplicate intervals).
    pub speedup: f64,
    /// `sequential_ns / steady_ns` — the steady-state speedup, where
    /// every recurring interval problem is a cache hit.
    pub steady_speedup: f64,
    /// Hits of the cold pass (intra-batch duplicates only).
    pub cache_hits: u64,
    pub cache_misses: u64,
    pub cache_evictions: u64,
    /// Hits over lookups in the cold pass.
    pub cache_hit_rate: f64,
    /// Hits over lookups in the steady (warm) pass.
    pub steady_hit_rate: f64,
    /// Solver time the hits skipped across both tuned passes, in ns.
    pub cache_saved_ns: u64,
    /// FNV-1a fingerprint of the reference outputs (corrected series +
    /// degradation levels, all windows).
    pub sequential_hash: u64,
    /// Same fingerprint for the cold tuned outputs.
    pub parallel_hash: u64,
    /// Same fingerprint for the steady tuned outputs.
    pub steady_hash: u64,
    /// All three fingerprints agree — the determinism contract.
    pub identical: bool,
}

impl CemParallelReport {
    /// Deterministic JSON (fixed key order).
    pub fn to_json(&self) -> String {
        let mut v = serde_json::Value::Object(Vec::new());
        v["bench"] = serde_json::Value::String("cem_parallel".into());
        v["jobs"] = serde_json::Value::U64(self.jobs as u64);
        v["windows"] = serde_json::Value::U64(self.windows as u64);
        v["intervals"] = serde_json::Value::U64(self.intervals as u64);
        v["sequential_ns"] = serde_json::Value::U64(self.sequential_ns);
        v["parallel_ns"] = serde_json::Value::U64(self.parallel_ns);
        v["steady_ns"] = serde_json::Value::U64(self.steady_ns);
        v["speedup"] = serde_json::Value::F64(self.speedup);
        v["steady_speedup"] = serde_json::Value::F64(self.steady_speedup);
        v["cache_hits"] = serde_json::Value::U64(self.cache_hits);
        v["cache_misses"] = serde_json::Value::U64(self.cache_misses);
        v["cache_evictions"] = serde_json::Value::U64(self.cache_evictions);
        v["cache_hit_rate"] = serde_json::Value::F64(self.cache_hit_rate);
        v["steady_hit_rate"] = serde_json::Value::F64(self.steady_hit_rate);
        v["cache_saved_ns"] = serde_json::Value::U64(self.cache_saved_ns);
        v["sequential_hash"] = serde_json::Value::String(format!("{:016x}", self.sequential_hash));
        v["parallel_hash"] = serde_json::Value::String(format!("{:016x}", self.parallel_hash));
        v["steady_hash"] = serde_json::Value::String(format!("{:016x}", self.steady_hash));
        v["identical"] = serde_json::Value::Bool(self.identical);
        v.to_string()
    }

    /// `seq=… par=… speedup=… steady=… …x hit_rate=… identical=…` line.
    pub fn summary(&self) -> String {
        format!(
            "seq={:.2}ms par={:.2}ms speedup={:.2}x steady={:.2}ms \
             steady_speedup={:.2}x hit_rate={:.1}% identical={}",
            self.sequential_ns as f64 / 1e6,
            self.parallel_ns as f64 / 1e6,
            self.speedup,
            self.steady_ns as f64 / 1e6,
            self.steady_speedup,
            self.cache_hit_rate * 100.0,
            self.identical,
        )
    }
}

/// Fingerprint a batch of ladder outcomes: corrected series plus the
/// per-interval degradation levels (levels are encoded as a `u32` series
/// so a rung change is as loud as a value change).
pub fn hash_outcomes(outs: &[LadderOutcome]) -> u64 {
    let mut series: Vec<Vec<u32>> = Vec::new();
    for out in outs {
        series.extend(out.corrected.iter().cloned());
        series.push(out.levels.iter().map(|l| *l as u32).collect());
        series.push(vec![
            (out.objective >> 32) as u32,
            out.objective as u32,
            u32::from(out.relaxed.is_some()),
        ]);
    }
    cem::hash_u32_series(&series)
}

/// Run the three passes and build the report. Returns the **reference**
/// outcomes (callers verify constraints against those — all passes are
/// asserted identical anyway) plus the report.
pub fn bench_ladder(
    items: &[(WindowConstraints, Vec<Vec<f32>>)],
    cfg: &LadderConfig,
    jobs: usize,
    use_cache: bool,
) -> (Vec<LadderOutcome>, CemParallelReport) {
    // Reference: sequential, uncached.
    let t0 = Instant::now();
    let reference = enforce_degraded_batch(items, cfg, &EnforceOptions::default());
    let sequential_ns = t0.elapsed().as_nanos() as u64;

    // Tuned, cold: `jobs` workers, shared fresh cache.
    let cache = SolutionCache::new(cem::cache::DEFAULT_CAPACITY);
    let opts = EnforceOptions::new(jobs, use_cache.then_some(&cache));
    let t1 = Instant::now();
    let tuned = enforce_degraded_batch(items, cfg, &opts);
    let parallel_ns = t1.elapsed().as_nanos() as u64;
    let cold = cache.stats();

    // Tuned, steady: same batch, now-warm cache — every recurring
    // problem resolves from memory, as in the always-on inference loop.
    let t2 = Instant::now();
    let steady = enforce_degraded_batch(items, cfg, &opts);
    let steady_ns = t2.elapsed().as_nanos() as u64;
    let total = cache.stats();

    let sequential_hash = hash_outcomes(&reference);
    let parallel_hash = hash_outcomes(&tuned);
    let steady_hash = hash_outcomes(&steady);
    let steady_lookups = (total.hits - cold.hits) + (total.misses - cold.misses);
    let report = CemParallelReport {
        jobs,
        windows: items.len(),
        intervals: reference.iter().map(|o| o.levels.len()).sum(),
        sequential_ns,
        parallel_ns,
        steady_ns,
        speedup: sequential_ns as f64 / (parallel_ns.max(1)) as f64,
        steady_speedup: sequential_ns as f64 / (steady_ns.max(1)) as f64,
        cache_hits: cold.hits,
        cache_misses: cold.misses,
        cache_evictions: total.evictions,
        cache_hit_rate: cold.hit_rate(),
        steady_hit_rate: (total.hits - cold.hits) as f64 / (steady_lookups.max(1)) as f64,
        cache_saved_ns: total.saved_ns,
        sequential_hash,
        parallel_hash,
        steady_hash,
        identical: sequential_hash == parallel_hash && sequential_hash == steady_hash,
    };
    (reference, report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::paper_windows;
    use fmml_fm::cem::DegradationLevel;

    fn items() -> Vec<(WindowConstraints, Vec<Vec<f32>>)> {
        paper_windows(350, 5)
            .iter()
            .map(|w| {
                let wc = WindowConstraints::from_window(w);
                let pred: Vec<Vec<f32>> = w
                    .truth
                    .iter()
                    .map(|q| q.iter().map(|&v| v * 1.3 + 0.4).collect())
                    .collect();
                (wc, pred)
            })
            .collect()
    }

    #[test]
    fn bench_ladder_is_equivalent_and_reports_hits() {
        let items = items();
        assert!(!items.is_empty());
        let (outs, report) = bench_ladder(&items, &LadderConfig::default(), 2, true);
        assert!(report.identical, "parallel/cached output diverged");
        assert_eq!(report.windows, items.len());
        assert_eq!(outs.len(), items.len());
        assert!(report.intervals > 0);
        assert_eq!(
            report.cache_hits + report.cache_misses,
            report.intervals as u64,
            "every interval is exactly one lookup"
        );
        assert!(
            report.steady_hit_rate >= report.cache_hit_rate,
            "warm pass should hit at least as often as the cold pass: {} < {}",
            report.steady_hit_rate,
            report.cache_hit_rate
        );
        assert_eq!(report.steady_hash, report.sequential_hash);
        for (out, (wc, _)) in outs.iter().zip(&items) {
            assert!(out
                .effective_constraints(wc)
                .satisfied_exact(&out.corrected));
        }
        // Real windows stay at full fidelity.
        assert!(outs
            .iter()
            .flat_map(|o| &o.levels)
            .all(|&l| l == DegradationLevel::Full));
    }

    #[test]
    fn report_json_has_the_ci_asserted_fields() {
        let report = CemParallelReport {
            jobs: 4,
            windows: 2,
            intervals: 12,
            sequential_ns: 2_000_000,
            parallel_ns: 500_000,
            steady_ns: 250_000,
            speedup: 4.0,
            steady_speedup: 8.0,
            cache_hits: 7,
            cache_misses: 5,
            cache_evictions: 0,
            cache_hit_rate: 7.0 / 12.0,
            steady_hit_rate: 1.0,
            cache_saved_ns: 123,
            sequential_hash: 0xdead_beef,
            parallel_hash: 0xdead_beef,
            steady_hash: 0xdead_beef,
            identical: true,
        };
        let j = report.to_json();
        assert!(j.contains("\"bench\":\"cem_parallel\""), "{j}");
        assert!(j.contains("\"identical\":true"), "{j}");
        assert!(j.contains("\"cache_hits\":7"), "{j}");
        assert!(j.contains("\"speedup\":4"), "{j}");
        assert!(j.contains("\"steady_speedup\":8"), "{j}");
        assert!(
            j.contains("\"sequential_hash\":\"00000000deadbeef\""),
            "{j}"
        );
        assert!(
            report.summary().contains("speedup=4.00x"),
            "{}",
            report.summary()
        );
    }
}
