//! The wire-codec benchmark behind `BENCH_wire.json`.
//!
//! Three passes, one report:
//!
//! 1. **Codec microbench** — encode and decode throughput for the two
//!    hot frames (`Interval` up, `Imputed` down) under the JSON wire v1
//!    and the binary wire v2 (`bin1`), on realistic simulated telemetry
//!    (not toy zeros — JSON cost scales with digit count). The headline
//!    number CI gates on is `imputed_encdec_speedup`: binary
//!    encode+decode throughput over JSON on `Imputed` frames.
//! 2. **Cross-codec fingerprint** — the same lockstep interval stream
//!    replayed twice against fresh servers, once per negotiated codec;
//!    every `Imputed` series is recorded and the two FNV fingerprints
//!    must match bitwise. The codec is transport, never content.
//! 3. **End-to-end loadgen** — the trace-replay load generator against a
//!    loopback server under each codec, so the report carries whole-path
//!    numbers (answered / p99 / rps), not just serializer loops.
//!
//! The JSON layout is flat (`imputed_bin1_encode_ns`,
//! `fingerprint_match`, …) so CI can grep single fields.

use crate::client::{Replies, Session, SessionSpec};
use fmml_core::streaming::IntervalUpdate;
use fmml_core::transformer_imputer::TransformerImputer;
use fmml_netsim::SimConfig;
use fmml_serve::protocol::{decode_frame, encode_frame_with, Frame, WireCodec, MAX_FRAME_LEN};
use fmml_serve::{loadgen, LoadReport, LoadgenConfig, ServerConfig};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Encode/decode cost of one frame shape under one codec.
#[derive(Debug, Clone, Copy)]
pub struct CodecPoint {
    pub bytes: usize,
    pub encode_ns: f64,
    pub decode_ns: f64,
}

/// One end-to-end loadgen point.
#[derive(Debug, Clone, Copy)]
pub struct EndToEndPoint {
    pub answered: u64,
    pub p99_us: u64,
    pub throughput_rps: f64,
    pub violations: u64,
}

impl EndToEndPoint {
    fn from_report(r: &LoadReport) -> EndToEndPoint {
        EndToEndPoint {
            answered: r.answered,
            p99_us: r.p99_us,
            throughput_rps: r.throughput_rps,
            violations: r.server_violations,
        }
    }
}

/// One `BENCH_wire.json` payload.
#[derive(Debug, Clone)]
pub struct WireBenchReport {
    pub cores: usize,
    pub iters: usize,
    pub interval_json: CodecPoint,
    pub interval_bin1: CodecPoint,
    pub imputed_json: CodecPoint,
    pub imputed_bin1: CodecPoint,
    pub json_fingerprint: u64,
    pub bin1_fingerprint: u64,
    pub fingerprint_match: bool,
    pub e2e_json: EndToEndPoint,
    pub e2e_bin1: EndToEndPoint,
}

impl WireBenchReport {
    /// Encode+decode throughput of bin1 over JSON for one frame shape.
    fn encdec_speedup(json: &CodecPoint, bin: &CodecPoint) -> f64 {
        (json.encode_ns + json.decode_ns) / (bin.encode_ns + bin.decode_ns)
    }

    pub fn imputed_encdec_speedup(&self) -> f64 {
        Self::encdec_speedup(&self.imputed_json, &self.imputed_bin1)
    }

    pub fn interval_encdec_speedup(&self) -> f64 {
        Self::encdec_speedup(&self.interval_json, &self.interval_bin1)
    }

    /// Deterministic, grep-friendly flat JSON.
    pub fn to_json(&self) -> String {
        use serde_json::Value;
        let mut v = Value::Object(Vec::new());
        v["bench"] = Value::String("wire".into());
        v["cores"] = Value::U64(self.cores as u64);
        v["iters"] = Value::U64(self.iters as u64);
        for (name, p) in [
            ("interval_json", &self.interval_json),
            ("interval_bin1", &self.interval_bin1),
            ("imputed_json", &self.imputed_json),
            ("imputed_bin1", &self.imputed_bin1),
        ] {
            v[format!("{name}_bytes").as_str()] = Value::U64(p.bytes as u64);
            v[format!("{name}_encode_ns").as_str()] = Value::F64(p.encode_ns);
            v[format!("{name}_decode_ns").as_str()] = Value::F64(p.decode_ns);
        }
        v["interval_encode_speedup"] =
            Value::F64(self.interval_json.encode_ns / self.interval_bin1.encode_ns);
        v["interval_decode_speedup"] =
            Value::F64(self.interval_json.decode_ns / self.interval_bin1.decode_ns);
        v["imputed_encode_speedup"] =
            Value::F64(self.imputed_json.encode_ns / self.imputed_bin1.encode_ns);
        v["imputed_decode_speedup"] =
            Value::F64(self.imputed_json.decode_ns / self.imputed_bin1.decode_ns);
        v["interval_encdec_speedup"] = Value::F64(self.interval_encdec_speedup());
        v["imputed_encdec_speedup"] = Value::F64(self.imputed_encdec_speedup());
        v["json_fingerprint"] = Value::String(format!("{:016x}", self.json_fingerprint));
        v["bin1_fingerprint"] = Value::String(format!("{:016x}", self.bin1_fingerprint));
        v["fingerprint_match"] = Value::U64(self.fingerprint_match as u64);
        for (name, p) in [("json", &self.e2e_json), ("bin1", &self.e2e_bin1)] {
            v[format!("e2e_{name}_answered").as_str()] = Value::U64(p.answered);
            v[format!("e2e_{name}_p99_us").as_str()] = Value::U64(p.p99_us);
            v[format!("e2e_{name}_throughput_rps").as_str()] = Value::F64(p.throughput_rps);
            v[format!("e2e_{name}_violations").as_str()] = Value::U64(p.violations);
        }
        v.to_string()
    }

    /// A few lines for stderr progress.
    pub fn summary(&self) -> String {
        let mut s = String::new();
        use std::fmt::Write as _;
        for (name, j, b) in [
            ("interval", &self.interval_json, &self.interval_bin1),
            ("imputed", &self.imputed_json, &self.imputed_bin1),
        ] {
            let _ = writeln!(
                s,
                "{name:<9} json {jb}B {je:.0}ns enc / {jd:.0}ns dec | bin1 {bb}B {be:.0}ns enc / \
                 {bd:.0}ns dec | enc+dec {x:.2}x",
                jb = j.bytes,
                je = j.encode_ns,
                jd = j.decode_ns,
                bb = b.bytes,
                be = b.encode_ns,
                bd = b.decode_ns,
                x = Self::encdec_speedup(j, b),
            );
        }
        let _ = writeln!(
            s,
            "fingerprint json={:016x} bin1={:016x} match={}",
            self.json_fingerprint, self.bin1_fingerprint, self.fingerprint_match
        );
        let _ = writeln!(
            s,
            "e2e json answered={} p99={}us {:.0}rps | bin1 answered={} p99={}us {:.0}rps",
            self.e2e_json.answered,
            self.e2e_json.p99_us,
            self.e2e_json.throughput_rps,
            self.e2e_bin1.answered,
            self.e2e_bin1.p99_us,
            self.e2e_bin1.throughput_rps,
        );
        s
    }
}

/// Benchmark knobs.
#[derive(Debug, Clone)]
pub struct WireBenchConfig {
    /// Encode/decode iterations per measured point.
    pub iters: usize,
    /// Lockstep intervals for the cross-codec fingerprint pass.
    pub intervals: usize,
    pub interval_len: usize,
    pub window_intervals: usize,
    /// Loadgen concurrency for the end-to-end points.
    pub clients: usize,
    pub loadgen_intervals: usize,
    pub deadline: Duration,
    pub seed: u64,
}

impl Default for WireBenchConfig {
    fn default() -> WireBenchConfig {
        WireBenchConfig {
            iters: 20_000,
            intervals: 24,
            interval_len: 10,
            window_intervals: 3,
            clients: 4,
            loadgen_intervals: 30,
            deadline: Duration::from_millis(50),
            seed: 41,
        }
    }
}

/// Mean ns/op over `iters` runs of `f`, `black_box`ed so the serializer
/// loop cannot be optimized away.
fn time_ns<T>(iters: usize, mut f: impl FnMut() -> T) -> f64 {
    let t0 = Instant::now();
    for _ in 0..iters {
        std::hint::black_box(f());
    }
    t0.elapsed().as_nanos() as f64 / iters as f64
}

fn codec_point(frame: &Frame, codec: WireCodec, iters: usize) -> CodecPoint {
    let bytes = encode_frame_with(frame, codec, MAX_FRAME_LEN).expect("bench frame encodes");
    let decoded = decode_frame(&bytes)
        .expect("bench frame decodes")
        .expect("complete");
    assert_eq!(&decoded.0, frame, "codec must round-trip the bench frame");
    CodecPoint {
        bytes: bytes.len(),
        encode_ns: time_ns(iters, || {
            encode_frame_with(frame, codec, MAX_FRAME_LEN).unwrap()
        }),
        decode_ns: time_ns(iters, || decode_frame(&bytes).unwrap().unwrap()),
    }
}

/// Lockstep replay of `updates` under one negotiated codec; returns the
/// FNV fingerprint over every `Imputed` series in seq order. Panics if
/// negotiation lands on anything but `codec` — a bench that silently
/// measured JSON twice would "pass" the speedup gate with 1.0x.
fn lockstep_fingerprint(
    model: &Arc<TransformerImputer>,
    cfg: &WireBenchConfig,
    updates: &[IntervalUpdate],
    port: usize,
    queues: usize,
    codec: WireCodec,
) -> u64 {
    let handle = fmml_serve::spawn(
        Arc::clone(model),
        ServerConfig {
            workers: 1,
            deadline: Duration::from_millis(500),
            wire: codec,
            ..ServerConfig::default()
        },
    )
    .expect("spawn wire bench server");
    let spec = SessionSpec {
        tenant: "wire",
        port,
        queues,
        interval_len: cfg.interval_len,
        window_intervals: cfg.window_intervals,
        codec,
    };
    let (mut session, _) = Session::open(handle.addr(), &spec, None);
    assert_eq!(
        session.codec(),
        codec,
        "negotiation must land on the codec under test"
    );
    let mut replies = Replies::default();
    for (seq, u) in (1u64..).zip(updates) {
        replies.record(session.step(seq, u));
    }
    session.bye();
    match handle.shutdown() {
        Frame::StatsReply { violations, .. } => assert_eq!(violations, 0),
        other => panic!("expected StatsReply, got {other:?}"),
    }
    replies.fingerprint()
}

fn e2e_point(
    model: &Arc<TransformerImputer>,
    cfg: &WireBenchConfig,
    codec: WireCodec,
) -> EndToEndPoint {
    let handle = fmml_serve::spawn(
        Arc::clone(model),
        ServerConfig {
            workers: 2,
            deadline: cfg.deadline,
            wire: codec,
            ..ServerConfig::default()
        },
    )
    .expect("spawn wire bench server");
    let report = loadgen::run(&LoadgenConfig {
        addr: handle.addr().to_string(),
        clients: cfg.clients,
        intervals: cfg.loadgen_intervals,
        interval_len: cfg.interval_len,
        window_intervals: cfg.window_intervals,
        sim: SimConfig::small(),
        sim_ms: 480,
        distinct_traces: 4.min(cfg.clients.max(1)),
        seed: cfg.seed,
        deadline: cfg.deadline,
        pace: None,
        chaos: None,
        tenant_prefix: "wire".into(),
        wire: codec,
    });
    assert_eq!(report.lost, 0, "{codec:?} e2e pass lost replies");
    assert_eq!(report.unknown_levels, 0);
    assert_eq!(report.server_violations, 0);
    handle.shutdown();
    EndToEndPoint::from_report(&report)
}

/// Run the full wire benchmark; panics on cross-codec divergence so CI
/// fails loud.
pub fn bench_wire(model: Arc<TransformerImputer>, cfg: &WireBenchConfig) -> WireBenchReport {
    let wlen = cfg.interval_len * cfg.window_intervals;
    let ws = crate::small_windows(720, cfg.seed, wlen, cfg.interval_len);
    let (updates, port, queues) = crate::interval_stream(&ws, cfg.intervals);

    // Microbench frames: the hottest update in the stream (largest
    // serialized size) and the Imputed reply the model produces for it.
    let update = updates
        .iter()
        .max_by_key(|u| {
            encode_frame_with(
                &Frame::Interval {
                    seq: 1,
                    update: (*u).clone(),
                    trace_id: None,
                },
                WireCodec::Json,
                MAX_FRAME_LEN,
            )
            .map_or(0, |b| b.len())
        })
        .expect("non-empty stream")
        .clone();
    // A full-width trace id, so both codecs pay its worst-case size.
    let trace_id = Some(fmml_obs::hash::SPLITMIX_GAMMA);
    let interval = Frame::Interval {
        seq: 48_271,
        update,
        trace_id,
    };
    let imputed = Frame::Imputed {
        seq: 48_271,
        port,
        series: (0..queues)
            .map(|q| {
                (0..cfg.interval_len * cfg.window_intervals)
                    .map(|i| (q * 7919 + i * 104_729) as u32 % 10_000)
                    .collect()
            })
            .collect(),
        level: "full".into(),
        enforced: true,
        latency_us: 1_234,
        trace_id,
    };

    let interval_json = codec_point(&interval, WireCodec::Json, cfg.iters);
    let interval_bin1 = codec_point(&interval, WireCodec::Bin1, cfg.iters);
    let imputed_json = codec_point(&imputed, WireCodec::Json, cfg.iters);
    let imputed_bin1 = codec_point(&imputed, WireCodec::Bin1, cfg.iters);

    let json_fp = lockstep_fingerprint(&model, cfg, &updates, port, queues, WireCodec::Json);
    let bin1_fp = lockstep_fingerprint(&model, cfg, &updates, port, queues, WireCodec::Bin1);
    assert_eq!(
        json_fp, bin1_fp,
        "reply content diverged across codecs — the wire leaked into the answers"
    );

    let e2e_json = e2e_point(&model, cfg, WireCodec::Json);
    let e2e_bin1 = e2e_point(&model, cfg, WireCodec::Bin1);

    WireBenchReport {
        cores: std::thread::available_parallelism().map_or(1, |n| n.get()),
        iters: cfg.iters,
        interval_json,
        interval_bin1,
        imputed_json,
        imputed_bin1,
        json_fingerprint: json_fp,
        bin1_fingerprint: bin1_fp,
        fingerprint_match: json_fp == bin1_fp,
        e2e_json,
        e2e_bin1,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tiny_bench_runs_and_serializes() {
        let model = crate::serve_model();
        let cfg = WireBenchConfig {
            iters: 50,
            intervals: 6,
            clients: 2,
            loadgen_intervals: 6,
            deadline: Duration::from_millis(200),
            ..WireBenchConfig::default()
        };
        let report = bench_wire(model, &cfg);
        assert!(report.fingerprint_match);
        let j = report.to_json();
        assert!(j.contains("\"imputed_encdec_speedup\""));
        assert!(j.contains("\"fingerprint_match\":1"));
        assert!(j.contains("\"e2e_bin1_violations\":0"));
        // Binary frames must at least not be larger than JSON on the
        // hot path (the speedup gate itself runs only on CI's 4-core
        // runner, where timings are stable).
        assert!(report.imputed_bin1.bytes <= report.imputed_json.bytes);
    }
}
