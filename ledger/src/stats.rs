//! Percentiles, fingerprints, and the in-memory span log of the traced
//! replay.

use std::io::Write;
use std::path::Path;
use std::time::{Duration, Instant};

/// Nearest-rank quantile of an ascending slice (`0.0` when empty).
pub fn quantile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

pub fn sorted(mut v: Vec<f64>) -> Vec<f64> {
    v.sort_by(f64::total_cmp);
    v
}

pub fn median(v: Vec<f64>) -> f64 {
    quantile(&sorted(v), 0.5)
}

pub fn mean(v: &[f64]) -> f64 {
    if v.is_empty() {
        0.0
    } else {
        v.iter().sum::<f64>() / v.len() as f64
    }
}

/// The highest percentile with at least ten samples beyond it, as a
/// fraction (`0.0` when there are fewer than eleven samples).
pub fn supported_quantile(n: usize) -> f64 {
    if n <= 10 {
        0.0
    } else {
        1.0 - 10.0 / n as f64
    }
}

/// FNV-1a over a stream of `u64` words.
#[derive(Debug, Clone, Copy)]
pub struct Fnv(u64);

impl Default for Fnv {
    fn default() -> Fnv {
        Fnv(0xcbf2_9ce4_8422_2325)
    }
}

impl Fnv {
    pub fn word(&mut self, w: u64) {
        for b in w.to_le_bytes() {
            self.0 ^= b as u64;
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
    }

    pub fn finish(self) -> u64 {
        self.0
    }
}

/// One recorded span: a layer boundary crossed by the replay.
#[derive(Debug, Clone)]
pub struct SpanRec {
    pub name: &'static str,
    /// Spans of one replayed interval share a trace id.
    pub trace: u64,
    pub parent: Option<usize>,
    pub start: Duration,
    pub dur: Duration,
}

/// Spans kept in memory for the whole run and written out at exit.
pub struct SpanLog {
    epoch: Instant,
    spans: Vec<SpanRec>,
}

impl SpanLog {
    pub fn new() -> SpanLog {
        SpanLog {
            epoch: Instant::now(),
            spans: Vec::new(),
        }
    }

    /// Time `f` as a span named `name` under `parent`; returns the
    /// result and the span's index (a parent handle for child spans).
    pub fn time<R>(
        &mut self,
        name: &'static str,
        trace: u64,
        parent: Option<usize>,
        f: impl FnOnce(&mut SpanLog, usize) -> R,
    ) -> (R, usize) {
        let idx = self.spans.len();
        let t0 = Instant::now();
        self.spans.push(SpanRec {
            name,
            trace,
            parent,
            start: t0 - self.epoch,
            dur: Duration::ZERO,
        });
        let out = f(self, idx);
        self.spans[idx].dur = t0.elapsed();
        (out, idx)
    }

    /// Durations in ms of every span called `name`.
    pub fn durations_ms(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.dur.as_secs_f64() * 1e3)
            .collect()
    }

    /// Self time in ms of every span called `name`: its duration minus
    /// the time its child spans cover.
    pub fn self_ms(&self, name: &str) -> Vec<f64> {
        let mut child = vec![Duration::ZERO; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child[p] += s.dur;
            }
        }
        self.spans
            .iter()
            .zip(&child)
            .filter(|(s, _)| s.name == name)
            .map(|(s, c)| s.dur.saturating_sub(*c).as_secs_f64() * 1e3)
            .collect()
    }

    /// Write every span as one JSON line.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut f = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (i, s) in self.spans.iter().enumerate() {
            writeln!(
                f,
                "{{\"id\":{i},\"name\":\"{}\",\"trace\":{},\"parent\":{},\"start_us\":{:.3},\"dur_us\":{:.3}}}",
                s.name,
                s.trace,
                s.parent.map_or("null".to_string(), |p| p.to_string()),
                s.start.as_secs_f64() * 1e6,
                s.dur.as_secs_f64() * 1e6
            )?;
        }
        f.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_quantiles() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(quantile(&v, 0.5), 50.0);
        assert_eq!(quantile(&v, 0.99), 99.0);
        assert_eq!(quantile(&v, 1.0), 100.0);
        assert_eq!(quantile(&[], 0.5), 0.0);
        assert!((supported_quantile(1000) - 0.99).abs() < 1e-12);
    }

    #[test]
    fn self_time_subtracts_children() {
        let mut log = SpanLog::new();
        log.time("outer", 1, None, |log, me| {
            log.time("inner", 1, Some(me), |_, _| {
                std::thread::sleep(Duration::from_millis(5))
            });
        });
        let outer = log.durations_ms("outer")[0];
        let own = log.self_ms("outer")[0];
        assert!(own < outer && outer - own >= 5.0);
    }
}
