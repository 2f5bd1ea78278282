//! Everything that runs in the benchmark's own process through the
//! library entry points: trace generation, KAL training, offline
//! imputation with Table-1 scoring, the bitwise replay of what was
//! served, and the traced replay that attributes time to layers.

use crate::load::{ClientLog, Outcome, SwitchStream};
use crate::stats::{Fnv, SpanLog};
use crate::workload::Workload;
use fmml_core::bursts::BurstConfig;
use fmml_core::eval::{impute_all, Method};
use fmml_core::imputer::Imputer;
use fmml_core::kal::{self, KalConfig};
use fmml_core::metrics::evaluate;
use fmml_core::streaming::{IntervalUpdate, StreamOptions, StreamingImputer};
use fmml_core::train::{train, TrainConfig};
use fmml_core::transformer_imputer::{encode_features, Scales, TransformerImputer};
use fmml_core::IterativeImputer;
use fmml_fm::cem::cache::DEFAULT_CAPACITY;
use fmml_fm::cem::{
    enforce, enforce_degraded_batch, interval_problem, smt_engine, BreakerConfig, CemEngine,
    DegradationLevel, EnforceOptions, LadderConfig, SolutionCache,
};
use fmml_fm::WindowConstraints;
use fmml_netsim::traffic::TrafficConfig;
use fmml_netsim::Simulation;
use fmml_nn::{ParamStore, Tape, TransformerConfig, TransformerEncoder};
use fmml_serve::protocol::{decode_frame, encode_frame_with, Frame};
use fmml_serve::MAX_FRAME_LEN;
use fmml_telemetry::{windows_from_trace, PortWindow};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Derive a sub-seed (splitmix64 of `seed` and a stream tag).
pub fn sub_seed(seed: u64, tag: u64) -> u64 {
    let mut z = seed ^ tag.wrapping_mul(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Wall time spent in the two trace-generation layers.
#[derive(Debug, Clone, Copy, Default)]
pub struct TraceCost {
    pub sim_ms: f64,
    pub sim_wall_s: f64,
    pub windows: usize,
    pub windows_wall_s: f64,
}

impl TraceCost {
    pub fn add(&mut self, o: TraceCost) {
        self.sim_ms += o.sim_ms;
        self.sim_wall_s += o.sim_wall_s;
        self.windows += o.windows;
        self.windows_wall_s += o.windows_wall_s;
    }
}

/// Simulate `ms` of seeded websearch+incast traffic and cut it into
/// back-to-back windows.
fn simulate(wl: &Workload, seed: u64, ms: u64) -> (Vec<PortWindow>, TraceCost) {
    let t = Instant::now();
    let traffic = TrafficConfig::websearch_incast(wl.ports(), wl.traffic_load);
    let gt = Simulation::new(wl.sim.clone(), traffic, seed).run_ms(ms);
    let sim_wall_s = t.elapsed().as_secs_f64();
    let t = Instant::now();
    let wlen = wl.window_len();
    let windows = windows_from_trace(&gt, wlen, wl.interval_len, wlen);
    let cost = TraceCost {
        sim_ms: ms as f64,
        sim_wall_s,
        windows: windows.len(),
        windows_wall_s: t.elapsed().as_secs_f64(),
    };
    (windows, cost)
}

/// Intervals per port taken from one simulation before a switch's stream
/// moves on to the next independently seeded one: a run then covers many
/// traffic episodes instead of one long, self-correlated trace.
const SEGMENT_INTERVALS: usize = 40;

/// Seeded telemetry per switch, long enough for `intervals` sends each.
pub fn switch_streams(
    wl: &Workload,
    seed: u64,
    intervals: usize,
) -> (Vec<SwitchStream>, TraceCost) {
    let per_port = intervals.div_ceil(wl.ports()) + wl.window_intervals;
    let segments = per_port.div_ceil(SEGMENT_INTERVALS);
    let ms = (SEGMENT_INTERVALS * wl.interval_len + wl.window_len()) as u64;
    let parts: Vec<(SwitchStream, TraceCost)> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..wl.switches)
            .map(|sw| {
                s.spawn(move || {
                    // Windows come out period by period, port by port.
                    let mut per_port: Vec<Vec<IntervalUpdate>> = vec![Vec::new(); wl.ports()];
                    let mut all_windows = Vec::new();
                    let mut cost = TraceCost::default();
                    for seg in 0..segments {
                        let tag = 1000 * (sw as u64 + 1) + seg as u64;
                        let (windows, c) = simulate(wl, sub_seed(seed, tag), ms);
                        cost.add(c);
                        for w in &windows {
                            for k in 0..w.intervals() {
                                per_port[w.port].push(IntervalUpdate::from_window(w, k));
                            }
                        }
                        all_windows.extend(windows);
                    }
                    let n = per_port.iter().map(Vec::len).min().unwrap_or(0);
                    let updates = (0..n)
                        .flat_map(|k| per_port.iter().map(move |p| p[k].clone()))
                        .collect();
                    let stream = SwitchStream {
                        switch: sw,
                        ports: (0..wl.ports()).collect(),
                        updates,
                        windows: all_windows,
                    };
                    (stream, cost)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("trace thread"))
            .collect()
    });
    let mut cost = TraceCost::default();
    let streams = parts
        .into_iter()
        .map(|(s, c)| {
            cost.add(c);
            s
        })
        .collect();
    (streams, cost)
}

/// Active windows from seeded runs until `n` are collected.
fn active_windows(wl: &Workload, seed: u64, n: usize, cost: &mut TraceCost) -> Vec<PortWindow> {
    let mut out = Vec::new();
    let mut run = 0;
    while out.len() < n {
        let ms = 1000.max(wl.window_len() as u64 * 4);
        let (ws, c) = simulate(wl, sub_seed(seed, run), ms);
        cost.add(c);
        out.extend(ws.into_iter().filter(PortWindow::has_activity));
        run += 1;
    }
    out.truncate(n);
    out
}

/// The training job: KAL training, then imputing held-out windows with
/// the model plus fast CEM, scored on Table 1. Both stages run once
/// before serving and again ([`TrainOutcome::repeat`]) on the same inputs
/// later in the run, so their timings span the run's time; every repeat
/// must reproduce the first bitwise.
pub struct TrainOutcome {
    pub model: TransformerImputer,
    pub examples: usize,
    pub steps: usize,
    /// Wall seconds of each training.
    pub train_s: Vec<f64>,
    /// Parameter fingerprint of each training.
    pub param_fingerprints: Vec<u64>,
    pub test_windows: usize,
    /// Wall seconds of each offline imputation, and its output fingerprint.
    pub impute_s: Vec<f64>,
    pub impute_fingerprints: Vec<u64>,
    train_set: Vec<PortWindow>,
    test_set: Vec<PortWindow>,
    cfg: TrainConfig,
    scales: Scales,
    /// Table-1 rows a-c (max, periodic, sent-count constraint errors)
    /// of the CEM-corrected output, over the windows whose measurements
    /// are consistent, and over all windows.
    pub cem_rows_abc: [f64; 3],
    pub all_rows_abc: [f64; 3],
    /// Test windows whose own ground truth breaks C1-C3, with what CEM
    /// made of them.
    pub infeasible_windows: Vec<String>,
    pub trace_cost: TraceCost,
}

pub fn train_job(wl: &Workload, seed: u64, seconds: f64) -> TrainOutcome {
    let mut trace_cost = TraceCost::default();
    let n_train = ((wl.train_windows_per_s * seconds).round() as usize).max(4);
    let n_test = ((wl.test_windows_per_s * seconds).round() as usize).max(4);
    let train_windows = active_windows(wl, sub_seed(seed, 1), n_train, &mut trace_cost);
    let test_windows = active_windows(wl, sub_seed(seed, 2), n_test, &mut trace_cost);
    let cfg = TrainConfig {
        epochs: wl.epochs,
        kal: Some(KalConfig::default()),
        seed: sub_seed(seed, 3),
        ..TrainConfig::default()
    };
    let (model, secs, fp) = timed_train(&train_windows, wl.scales(), &cfg);
    let (train_s, param_fingerprints) = (vec![secs], vec![fp]);
    let (imputed, secs, fp) = timed_impute(&model, &test_windows);
    let (impute_s, impute_fingerprints) = (vec![secs], vec![fp]);
    let rows = |keep: &dyn Fn(usize) -> bool| {
        let (w, i): (Vec<PortWindow>, Vec<Vec<Vec<f32>>>) = test_windows
            .iter()
            .zip(&imputed)
            .enumerate()
            .filter(|(k, _)| keep(*k))
            .map(|(_, (w, i))| (w.clone(), i.clone()))
            .unzip();
        if w.is_empty() {
            return [0.0; 3];
        }
        let r = evaluate(&w, &i, &BurstConfig::default());
        [r.max_constraint, r.periodic_constraint, r.sent_constraint]
    };
    // The simulator's ground truth is a solution of a window's
    // constraints whenever it satisfies them, so CEM must succeed there
    // and leave rows a-c at zero. Windows whose own ground truth breaks
    // C1-C3 have contradictory measurements: no output can satisfy them
    // (`impute_all` then keeps the raw model output). Those are counted
    // and named, apart from CEM's own record.
    let truth_breaks: Vec<usize> = test_windows
        .iter()
        .enumerate()
        .filter(|(_, w)| {
            let truth: Vec<Vec<u32>> = w
                .truth
                .iter()
                .map(|q| q.iter().map(|&v| v as u32).collect())
                .collect();
            !WindowConstraints::from_window(w).satisfied_exact(&truth)
        })
        .map(|(k, _)| k)
        .collect();
    let infeasible_windows = truth_breaks
        .iter()
        .map(|&k| {
            let w = &test_windows[k];
            let why = enforce(
                &WindowConstraints::from_window(w),
                &imputed[k],
                &CemEngine::Fast,
            )
            .err()
            .map_or("CEM found a solution".to_string(), |e| e.to_string());
            format!(
                "test window {k} (port {}, bin {}): ground truth breaks C1-C3; {why}",
                w.port, w.start_bin
            )
        })
        .collect();
    let cem_rows_abc = rows(&|k| !truth_breaks.contains(&k));
    let all_rows_abc = rows(&|_| true);
    let per_epoch = train_windows.len() * wl.queues();
    TrainOutcome {
        examples: wl.epochs * per_epoch,
        steps: wl.epochs * per_epoch.div_ceil(cfg.batch_size),
        train_s,
        param_fingerprints,
        test_windows: test_windows.len(),
        impute_s,
        impute_fingerprints,
        cem_rows_abc,
        all_rows_abc,
        infeasible_windows,
        trace_cost,
        model,
        train_set: train_windows,
        test_set: test_windows,
        cfg,
        scales: wl.scales(),
    }
}

impl TrainOutcome {
    /// Train and impute once more on the same inputs, recording the
    /// timings and fingerprints.
    pub fn repeat(&mut self) {
        let (_, secs, fp) = timed_train(&self.train_set, self.scales, &self.cfg);
        self.train_s.push(secs);
        self.param_fingerprints.push(fp);
        let (_, secs, fp) = timed_impute(&self.model, &self.test_set);
        self.impute_s.push(secs);
        self.impute_fingerprints.push(fp);
    }
}

// Training and offline imputation run on one thread: their throughputs
// then measure the code rather than how the host schedules two threads.

fn timed_train(
    windows: &[PortWindow],
    scales: Scales,
    cfg: &TrainConfig,
) -> (TransformerImputer, f64, u64) {
    let t = Instant::now();
    let (model, _) = rayon::with_max_threads(1, || train(windows, scales, cfg));
    let secs = t.elapsed().as_secs_f64();
    let mut fp = Fnv::default();
    for b in model.store.to_json().bytes() {
        fp.word(b as u64);
    }
    (model, secs, fp.finish())
}

fn timed_impute(
    model: &TransformerImputer,
    windows: &[PortWindow],
) -> (Vec<Vec<Vec<f32>>>, f64, u64) {
    let t = Instant::now();
    let imputed = rayon::with_max_threads(1, || {
        impute_all(
            Method::TransformerKalCem,
            windows,
            &IterativeImputer::default(),
            model,
            model,
            &CemEngine::Fast,
        )
    });
    let secs = t.elapsed().as_secs_f64();
    let mut fp = Fnv::default();
    for v in imputed.iter().flatten().flatten() {
        fp.word(v.to_bits() as u64);
    }
    (imputed, secs, fp.finish())
}

/// The ladder the server's workers run for `wl` (default ladder, the
/// workload's engine, the server's default circuit breaker).
pub fn server_ladder(wl: &Workload) -> LadderConfig {
    LadderConfig {
        engine: wl.engine(),
        breaker: Some(BreakerConfig::default()),
        ..LadderConfig::default()
    }
}

/// Bitwise comparison of served replies with an offline replay.
#[derive(Debug, Clone, Default)]
pub struct ReplayCheck {
    pub compared: usize,
    pub mismatched: usize,
    pub served_fingerprint: u64,
    pub replay_fingerprint: u64,
}

/// Replay every interval each server ingested through a fresh
/// `StreamingImputer` per port and fingerprint the series it would have
/// answered, next to the fingerprint of what was actually served.
pub fn replay_check(
    model: &TransformerImputer,
    wl: &Workload,
    streams: &[SwitchStream],
    logs: &[ClientLog],
) -> ReplayCheck {
    let parts: Vec<ReplayCheck> = std::thread::scope(|s| {
        let handles: Vec<_> = streams
            .iter()
            .zip(logs)
            .map(|(stream, log)| s.spawn(move || replay_switch(model, wl, stream, log)))
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("replay thread"))
            .collect()
    });
    let mut served = Fnv::default();
    let mut replay = Fnv::default();
    let mut out = ReplayCheck::default();
    for p in parts {
        out.compared += p.compared;
        out.mismatched += p.mismatched;
        served.word(p.served_fingerprint);
        replay.word(p.replay_fingerprint);
    }
    out.served_fingerprint = served.finish();
    out.replay_fingerprint = replay.finish();
    out
}

fn reply_hash(h: &mut Fnv, seq: u64, port: usize, series: &[Vec<u32>], level: &str) {
    h.word(seq);
    h.word(port as u64);
    h.word(fmml_fm::cem::hash_u32_series(series));
    for b in level.bytes() {
        h.word(b as u64);
    }
}

fn replay_switch(
    model: &TransformerImputer,
    wl: &Workload,
    stream: &SwitchStream,
    log: &ClientLog,
) -> ReplayCheck {
    // A solution cache, like the server's: it changes no output.
    let opts = StreamOptions {
        ladder: server_ladder(wl),
        cache: Some(Arc::new(SolutionCache::new(DEFAULT_CAPACITY))),
        ..StreamOptions::default()
    };
    let mut imputers: Vec<StreamingImputer<&TransformerImputer>> = stream
        .ports
        .iter()
        .map(|&p| {
            StreamingImputer::with_options(
                model,
                opts.clone(),
                p,
                wl.queues(),
                wl.interval_len,
                wl.window_intervals,
            )
        })
        .collect();
    let mut served: Vec<_> = log.served.iter().collect();
    served.sort_by_key(|r| r.seq);
    let mut attempts: Vec<_> = log
        .attempts
        .iter()
        .filter(|a| a.outcome.ingested())
        .collect();
    attempts.sort_by_key(|a| a.seq);
    let mut out = ReplayCheck::default();
    let mut hs = Fnv::default();
    let mut hr = Fnv::default();
    let mut next_served = served.iter().peekable();
    for a in attempts {
        let update = stream.updates[a.update].clone();
        let port = update.port;
        let got = imputers[port].try_push(update).ok().flatten();
        if !matches!(a.outcome, Outcome::Answered { .. }) {
            continue;
        }
        let Some(reply) = next_served.next_if(|r| r.seq == a.seq) else {
            continue;
        };
        out.compared += 1;
        reply_hash(&mut hs, reply.seq, reply.port, &reply.series, &reply.level);
        match got {
            Some(g) => {
                reply_hash(&mut hr, a.seq, g.port, &g.series, g.level.label());
                if g.series != reply.series || g.level.label() != reply.level {
                    out.mismatched += 1;
                }
            }
            None => out.mismatched += 1,
        }
    }
    out.served_fingerprint = hs.finish();
    out.replay_fingerprint = hr.finish();
    out
}

/// Every span name the traced replay records.
pub const SPAN_NAMES: [&str; 8] = [
    "replay.interval",
    "serve.protocol.encode",
    "serve.protocol.decode",
    "core.try_prepare",
    "nn.forward",
    "fm.enforce",
    "smt.solve",
    "core.kal_terms",
];

/// Passes over the traced windows that time ingest alone.
const INGEST_PASSES: usize = 5;

/// Per-layer samples from the traced replay.
#[derive(Debug, Default)]
pub struct LayerSamples {
    pub smt_solves: usize,
    pub smt_conflicts: u64,
    pub smt_budget_exhausted: u64,
    pub interval_frame_bytes: Vec<f64>,
    pub imputed_frame_bytes: Vec<f64>,
    /// `try_prepare` minus the forward pass on the same window, in
    /// microseconds, one per full window.
    pub ingest_us: Vec<f64>,
    /// Windows whose forward pass differed from the one `try_prepare`
    /// ran: the two were not given the same window.
    pub forward_mismatches: usize,
}

fn counter(name: &str) -> u64 {
    fmml_obs::snapshot()
        .counters
        .iter()
        .find(|(n, _)| n == name)
        .map_or(0, |&(_, v)| v)
}

/// A model of `model`'s input shape with no encoder layers and width 2:
/// its forward pass is as small as the architecture allows, so a
/// `StreamingImputer` over it spends its `try_prepare` time on ingest.
fn bare_model(model: &TransformerImputer) -> TransformerImputer {
    let cfg = TransformerConfig {
        d_model: 2,
        heads: 1,
        layers: 0,
        ff_dim: 1,
        ..model.model.cfg.clone()
    };
    let mut store = ParamStore::new();
    let encoder = TransformerEncoder::new(&mut store, 0, cfg);
    TransformerImputer {
        store,
        model: encoder,
        scales: model.scales,
        label: "bare".into(),
    }
}

/// Replay the first `n` telemetry windows of a served stream with a span
/// around each public call into a layer. Each window's intervals go
/// through a fresh `StreamingImputer` for its port, so the last one
/// fills the imputer's window with exactly the telemetry window, and the
/// forward pass is timed again on that window. Ingest is timed through
/// a second `StreamingImputer` over [`bare_model`], minus that model's
/// forward pass on the same window.
pub fn traced_replay(
    model: &TransformerImputer,
    wl: &Workload,
    stream: &SwitchStream,
    n: usize,
    spans: &mut SpanLog,
) -> LayerSamples {
    let mut out = LayerSamples::default();
    let ladder = server_ladder(wl);
    let opts = StreamOptions {
        ladder: ladder.clone(),
        ..StreamOptions::default()
    };
    let bare = bare_model(model);
    let imputer = |m, port| {
        StreamingImputer::with_options(
            m,
            opts.clone(),
            port,
            wl.queues(),
            wl.interval_len,
            wl.window_intervals,
        )
    };
    let windows = &stream.windows[..n.min(stream.windows.len())];
    // Ingest alone, in passes of its own so that no heavier layer's work
    // cools the caches between the two timings it subtracts.
    for _ in 0..INGEST_PASSES {
        for w in windows {
            let mut ingest_only = imputer(&bare, w.port);
            let updates: Vec<IntervalUpdate> = (0..w.intervals())
                .map(|k| IntervalUpdate::from_window(w, k))
                .collect();
            let mut prepared = None;
            let mut prepare = Duration::ZERO;
            for u in updates {
                let t = Instant::now();
                prepared = ingest_only.try_prepare(u).expect("ingest");
                prepare = t.elapsed();
            }
            let t = Instant::now();
            let imputed = bare.impute(w);
            let forward = t.elapsed();
            let prepared = prepared.expect("a telemetry window fills the imputer");
            out.forward_mismatches += (imputed != prepared.imputed) as usize;
            out.ingest_us
                .push((prepare.as_secs_f64() - forward.as_secs_f64()) * 1e6);
        }
    }
    for (i, w) in windows.iter().enumerate() {
        let mut full = imputer(model, w.port);
        for k in 0..w.intervals() {
            let update = IntervalUpdate::from_window(w, k);
            let seq = (i * w.intervals() + k + 1) as u64;
            let trace = seq;
            spans.time("replay.interval", trace, None, |spans, root| {
                let frame = Frame::Interval {
                    seq,
                    update: update.clone(),
                    trace_id: None,
                };
                let (bytes, _) = spans.time("serve.protocol.encode", trace, Some(root), |_, _| {
                    encode_frame_with(&frame, wl.codec, MAX_FRAME_LEN).expect("encode interval")
                });
                out.interval_frame_bytes.push(bytes.len() as f64);
                spans.time("serve.protocol.decode", trace, Some(root), |_, _| {
                    decode_frame(&bytes).expect("decode interval")
                });
                let (prepared, _) = spans.time("core.try_prepare", trace, Some(root), |_, _| {
                    full.try_prepare(update.clone()).expect("ingest")
                });
                let Some(prepared) = prepared else {
                    return;
                };
                let (imputed, _) =
                    spans.time("nn.forward", trace, Some(root), |_, _| model.impute(w));
                out.forward_mismatches += (imputed != prepared.imputed) as usize;
                let items = [prepared.item()];
                let (outcomes, _) = spans.time("fm.enforce", trace, Some(root), |_, _| {
                    enforce_degraded_batch(&items, &ladder, &EnforceOptions::new(1, None))
                });
                if let CemEngine::Smt { budget } = &ladder.engine {
                    for k in 0..prepared.window_intervals {
                        let problem = interval_problem(&prepared.constraints, &prepared.imputed, k);
                        let before = counter("smt.conflicts");
                        let (res, _) = spans.time("smt.solve", trace, Some(root), |_, _| {
                            smt_engine::solve(&problem, *budget)
                        });
                        out.smt_conflicts += counter("smt.conflicts") - before;
                        out.smt_solves += 1;
                        if matches!(res, Err(smt_engine::SmtCemError::Budget)) {
                            out.smt_budget_exhausted += 1;
                        }
                    }
                }
                let outcome = &outcomes[0];
                let level = prepared.newest_level(&outcome.levels);
                let reply = Frame::Imputed {
                    seq,
                    port: w.port,
                    series: prepared.newest_interval(&outcome.corrected),
                    level: level.label().to_string(),
                    enforced: level != DegradationLevel::MeasurementRelaxed,
                    latency_us: 0,
                    trace_id: None,
                };
                let (bytes, _) = spans.time("serve.protocol.encode", trace, Some(root), |_, _| {
                    encode_frame_with(&reply, wl.codec, MAX_FRAME_LEN).expect("encode reply")
                });
                out.imputed_frame_bytes.push(bytes.len() as f64);
                spans.time("serve.protocol.decode", trace, Some(root), |_, _| {
                    decode_frame(&bytes).expect("decode reply")
                });
            });
        }
    }
    out
}

/// The KAL constraint terms of `n` training windows, each queue's terms
/// spanned on the tape of the model's forward pass, as training builds
/// them.
pub fn traced_kal_terms(
    model: &TransformerImputer,
    wl: &Workload,
    seed: u64,
    n: usize,
    spans: &mut SpanLog,
) {
    let mut cost = TraceCost::default();
    let windows = active_windows(wl, sub_seed(seed, 4), n, &mut cost);
    let kal_cfg = KalConfig::default();
    for (i, w) in windows.iter().enumerate() {
        let trace = 1_000_000 + i as u64;
        for q in 0..w.num_queues() {
            let mut tape = Tape::new(&model.store);
            let x = tape.constant(encode_features(w, q, model.scales));
            let pred = model.model.forward_series(&mut tape, x);
            let (terms, _) = spans.time("core.kal_terms", trace, None, |_, _| {
                kal::build_terms(&mut tape, pred, w, q, model.scales.qlen, &kal_cfg)
            });
            std::hint::black_box(terms);
        }
    }
}
