//! `BENCH_<name>.json` summaries of timed runs.
//!
//! A run is summarized as one file of median wall time per id:
//!
//! ```json
//! {"bench":"cem_ladder",
//!  "results":[{"id":"fault_run_enforce_window","median_ns":1234567.0,"samples":20}]}
//! ```
//!
//! `fmml fault-run --bench-out DIR` writes `BENCH_cem_ladder.json` in
//! this schema.

use std::path::{Path, PathBuf};

/// One benchmark's summary: median wall time per iteration.
#[derive(Debug, Clone, PartialEq)]
pub struct BenchRecord {
    /// Criterion-style id, e.g. `"cem/fast/len50"`.
    pub id: String,
    /// Median nanoseconds per iteration.
    pub median_ns: f64,
    /// Number of timed samples behind the median.
    pub samples: u64,
}

/// A named set of benchmark results (one bench target's run).
#[derive(Debug, Clone, PartialEq)]
pub struct Baseline {
    /// Bench target name; determines the `BENCH_<name>.json` filename.
    pub bench: String,
    pub results: Vec<BenchRecord>,
}

impl Baseline {
    pub fn new(bench: &str) -> Baseline {
        Baseline {
            bench: bench.to_string(),
            results: Vec::new(),
        }
    }

    /// Append one result.
    pub fn record(&mut self, id: &str, median_ns: f64, samples: u64) {
        self.results.push(BenchRecord {
            id: id.to_string(),
            median_ns,
            samples,
        });
    }

    /// Deterministic JSON (results in insertion order).
    pub fn to_json(&self) -> String {
        let mut v = serde_json::Value::Object(Vec::new());
        v["bench"] = serde_json::Value::String(self.bench.clone());
        let results: Vec<serde_json::Value> = self
            .results
            .iter()
            .map(|r| {
                let mut o = serde_json::Value::Object(Vec::new());
                o["id"] = serde_json::Value::String(r.id.clone());
                o["median_ns"] = serde_json::Value::F64(r.median_ns);
                o["samples"] = serde_json::Value::U64(r.samples);
                o
            })
            .collect();
        v["results"] = serde_json::Value::Array(results);
        v.to_string()
    }

    /// Write `BENCH_<bench>.json` into `dir`; returns the path written.
    pub fn save(&self, dir: &Path) -> std::io::Result<PathBuf> {
        crate::save(dir, &self.bench, &self.to_json())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Baseline {
        let mut b = Baseline::new("demo");
        b.record("cem/fast/len50", 1_500.0, 20);
        b.record("cem/smt/len50", 420_000.5, 10);
        b
    }

    #[test]
    fn save_writes_bench_named_file() {
        let dir = std::env::temp_dir().join(format!("fmml_baseline_{}", std::process::id()));
        let path = sample().save(&dir).unwrap();
        assert_eq!(path.file_name().unwrap(), "BENCH_demo.json");
        let text = std::fs::read_to_string(&path).unwrap();
        assert_eq!(text.trim_end(), sample().to_json());
        assert!(
            text.starts_with("{\"bench\":\"demo\",\"results\":[{\"id\":\"cem/fast/len50\""),
            "{text}"
        );
        std::fs::remove_dir_all(&dir).ok();
    }
}
