//! The crash-recovery benchmark behind `BENCH_recovery.json`.
//!
//! Three passes against real loopback servers answer the failure-
//! recovery questions §12 of DESIGN.md poses:
//!
//! 1. **Clean fingerprint** — a lockstep replay with no faults; every
//!    `Imputed` series is folded into an order-sensitive FNV
//!    fingerprint. This is the ground truth a recovered run must match
//!    bit for bit.
//! 2. **Crash pass** — the same stream against a server injecting
//!    worker panics, solver stalls, and slow writes, plus a deliberate
//!    mid-stream disconnect resumed via the session token. The pass
//!    asserts exactly-once delivery (every enforced interval answered
//!    exactly once, fingerprint identical to pass 1), measures recovery
//!    latency (panic requeue → reply committed) and worker restarts.
//! 3. **Chaos swarm** — the trace-replay load generator under the
//!    standard wire-chaos preset *and* process faults at once; with
//!    resumption in play the run must end with zero lost and zero
//!    unsent intervals.
//!
//! Contract violations panic so CI fails loud, and the JSON is flat so
//! CI can grep single fields.

use crate::client::{Replies, Session, SessionSpec};
use fmml_core::streaming::IntervalUpdate;
use fmml_core::transformer_imputer::TransformerImputer;
use fmml_fault::ProcessFaultPlan;
use fmml_netsim::SimConfig;
use fmml_serve::protocol::Frame;
use fmml_serve::{loadgen, ChaosConfig, LoadgenConfig, ServerConfig, WireCodec};
use std::sync::Arc;
use std::time::Duration;

/// Benchmark knobs.
#[derive(Debug, Clone)]
pub struct RecoveryBenchConfig {
    /// Intervals replayed by the lockstep passes.
    pub intervals: usize,
    pub interval_len: usize,
    pub window_intervals: usize,
    /// End-to-end budget used by the chaos-swarm pass.
    pub deadline: Duration,
    pub workers: usize,
    /// Process-fault cadences for the crash passes (see
    /// [`ProcessFaultPlan`]; panic cadence must be ≥ 2).
    pub worker_panic_every: u64,
    pub solver_stall_every: u64,
    pub solver_stall_ms: u64,
    pub slow_write_every: u64,
    pub slow_write_ms: u64,
    /// Chaos-swarm geometry.
    pub chaos_clients: usize,
    pub chaos_intervals: usize,
    pub seed: u64,
}

impl Default for RecoveryBenchConfig {
    fn default() -> RecoveryBenchConfig {
        RecoveryBenchConfig {
            intervals: 36,
            interval_len: 10,
            window_intervals: 3,
            deadline: Duration::from_millis(50),
            workers: 2,
            worker_panic_every: 8,
            solver_stall_every: 9,
            solver_stall_ms: 5,
            slow_write_every: 7,
            slow_write_ms: 2,
            chaos_clients: 4,
            chaos_intervals: 30,
            seed: 41,
        }
    }
}

impl RecoveryBenchConfig {
    fn faults(&self) -> ProcessFaultPlan {
        ProcessFaultPlan {
            worker_panic_every: self.worker_panic_every,
            solver_stall_every: self.solver_stall_every,
            solver_stall_ms: self.solver_stall_ms,
            slow_write_every: self.slow_write_every,
            slow_write_ms: self.slow_write_ms,
        }
    }
}

/// One `BENCH_recovery.json` payload.
#[derive(Debug, Clone)]
pub struct RecoveryBenchReport {
    pub intervals: usize,
    pub enforced: usize,
    pub deadline_ms: u64,
    pub clean_fingerprint: u64,
    pub crash_fingerprint: u64,
    pub fingerprint_match: bool,
    pub worker_panics: u64,
    pub worker_restarts: u64,
    pub resumes: u64,
    pub replayed: u64,
    /// Exactly-once delivery ratio of the crash pass (answered once /
    /// enforced); anything but 1.0 panics before the report is built.
    pub availability: f64,
    pub recovery_samples: usize,
    pub recovery_p50_us: u64,
    pub recovery_p99_us: u64,
    pub recovery_max_us: u64,
    pub crash_violations: u64,
    /// Chaos-swarm pass (wire chaos + process faults + resumption).
    pub chaos_clients: usize,
    pub chaos_sent: u64,
    pub chaos_answered: u64,
    pub chaos_lost: u64,
    pub chaos_unsent: u64,
    pub chaos_resumes: u64,
    pub chaos_duplicates: u64,
    pub chaos_reconnects: u64,
    pub chaos_client_failures: u64,
    pub chaos_violations: u64,
    pub chaos_worker_restarts: u64,
}

impl RecoveryBenchReport {
    /// Deterministic, grep-friendly flat JSON.
    pub fn to_json(&self) -> String {
        use serde_json::Value;
        let mut v = Value::Object(Vec::new());
        v["bench"] = Value::String("recovery".into());
        v["intervals"] = Value::U64(self.intervals as u64);
        v["enforced"] = Value::U64(self.enforced as u64);
        v["deadline_ms"] = Value::U64(self.deadline_ms);
        v["clean_fingerprint"] = Value::String(format!("{:016x}", self.clean_fingerprint));
        v["crash_fingerprint"] = Value::String(format!("{:016x}", self.crash_fingerprint));
        v["fingerprint_match"] = Value::U64(self.fingerprint_match as u64);
        v["worker_panics"] = Value::U64(self.worker_panics);
        v["worker_restarts"] = Value::U64(self.worker_restarts);
        v["resumes"] = Value::U64(self.resumes);
        v["replayed"] = Value::U64(self.replayed);
        v["availability"] = Value::F64(self.availability);
        v["recovery_samples"] = Value::U64(self.recovery_samples as u64);
        v["recovery_p50_us"] = Value::U64(self.recovery_p50_us);
        v["recovery_p99_us"] = Value::U64(self.recovery_p99_us);
        v["recovery_max_us"] = Value::U64(self.recovery_max_us);
        v["crash_violations"] = Value::U64(self.crash_violations);
        v["chaos_clients"] = Value::U64(self.chaos_clients as u64);
        v["chaos_sent"] = Value::U64(self.chaos_sent);
        v["chaos_answered"] = Value::U64(self.chaos_answered);
        v["chaos_lost"] = Value::U64(self.chaos_lost);
        v["chaos_unsent"] = Value::U64(self.chaos_unsent);
        v["chaos_resumes"] = Value::U64(self.chaos_resumes);
        v["chaos_duplicates"] = Value::U64(self.chaos_duplicates);
        v["chaos_reconnects"] = Value::U64(self.chaos_reconnects);
        v["chaos_client_failures"] = Value::U64(self.chaos_client_failures);
        v["chaos_violations"] = Value::U64(self.chaos_violations);
        v["chaos_worker_restarts"] = Value::U64(self.chaos_worker_restarts);
        v.to_string()
    }

    /// Human-readable stderr summary.
    pub fn summary(&self) -> String {
        let mut s = String::new();
        use std::fmt::Write as _;
        let _ = writeln!(
            s,
            "recovery: {} enforced intervals, fingerprint match = {}",
            self.enforced, self.fingerprint_match
        );
        let _ = writeln!(
            s,
            "  crash pass   panics {} | restarts {} | resumes {} | replayed {} | violations {}",
            self.worker_panics,
            self.worker_restarts,
            self.resumes,
            self.replayed,
            self.crash_violations
        );
        let _ = writeln!(
            s,
            "  recovery lat p50 {} us | p99 {} us | max {} us ({} samples)",
            self.recovery_p50_us, self.recovery_p99_us, self.recovery_max_us, self.recovery_samples
        );
        let _ = writeln!(
            s,
            "  chaos swarm  sent {} | answered {} | lost {} | unsent {} | resumes {} | dups {} | violations {}",
            self.chaos_sent, self.chaos_answered, self.chaos_lost, self.chaos_unsent,
            self.chaos_resumes, self.chaos_duplicates, self.chaos_violations
        );
        s
    }
}

/// What a lockstep pass produced, beyond the replies themselves.
struct PassOutcome {
    replies: Replies,
    worker_panics: u64,
    worker_restarts: u64,
    resumes: u64,
    replayed: u64,
    requeue_latencies_us: Vec<u64>,
    violations: u64,
}

/// Lockstep replay of `updates` against a fresh server. With
/// `kill_connection`, the client vanishes mid-stream with a reply in
/// flight and resumes via the session token — exercising park, drain,
/// watermark, and replay on top of whatever process faults are active.
fn lockstep_pass(
    model: &Arc<TransformerImputer>,
    cfg: &RecoveryBenchConfig,
    updates: &[IntervalUpdate],
    port: usize,
    queues: usize,
    faults: ProcessFaultPlan,
    kill_connection: bool,
) -> PassOutcome {
    let handle = fmml_serve::spawn(
        Arc::clone(model),
        ServerConfig {
            workers: cfg.workers,
            // Generous server-side deadline: recovery latency is measured
            // separately; deadline misses are not this bench's subject.
            deadline: Duration::from_millis(500),
            max_restarts: 64,
            process_faults: faults,
            ..ServerConfig::default()
        },
    )
    .expect("spawn recovery bench server");
    let addr = handle.addr();

    let spec = SessionSpec {
        tenant: "recovery",
        port,
        queues,
        interval_len: cfg.interval_len,
        window_intervals: cfg.window_intervals,
        codec: WireCodec::Json,
    };
    let (mut session, welcome) = Session::open(addr, &spec, None);
    let Frame::Welcome {
        resume_token: Some(token),
        ..
    } = welcome
    else {
        panic!("expected a resumable Welcome, got {welcome:?}");
    };

    let mut replies = Replies::default();
    let cut = if kill_connection {
        updates.len() / 2
    } else {
        usize::MAX
    };
    let mut last_read = 0u64;
    let mut idx = 0usize;
    while idx < updates.len() {
        let seq = idx as u64 + 1;
        session.send(seq, &updates[idx]);
        idx += 1;
        if idx == cut {
            // Vanish with this seq's reply unread; the server parks the
            // session and the token brings it back.
            drop(session);
            let (fresh, welcome) = Session::open(addr, &spec, Some((&token, last_read)));
            session = fresh;
            let resume_seq = match welcome {
                Frame::Welcome {
                    resumed,
                    resume_seq,
                    ..
                } => {
                    assert_eq!(resumed, Some(true), "mid-stream resume must succeed");
                    resume_seq.expect("resumed welcome carries the watermark")
                }
                other => panic!("expected Welcome, got {other:?}"),
            };
            assert!(
                resume_seq >= seq,
                "watermark must cover the drained in-flight seq"
            );
            // Replayed frames cover (last_read, resume_seq], in order.
            for expect in last_read + 1..=resume_seq {
                replies.record(session.reply(expect));
            }
            last_read = resume_seq;
            idx = resume_seq as usize;
            continue;
        }
        replies.record(session.reply(seq));
        last_read = seq;
    }
    session.bye();

    let (worker_panics, worker_restarts) = handle.worker_stats();
    let (resumes, replayed) = handle.resume_stats();
    let requeue_latencies_us = handle.requeue_latencies();
    let violations = match handle.shutdown() {
        Frame::StatsReply { violations, .. } => violations,
        other => panic!("expected StatsReply, got {other:?}"),
    };
    PassOutcome {
        replies,
        worker_panics,
        worker_restarts,
        resumes,
        replayed,
        requeue_latencies_us,
        violations,
    }
}

fn pct(sorted: &[u64], q: f64) -> u64 {
    if sorted.is_empty() {
        0
    } else {
        sorted[((sorted.len() - 1) as f64 * q) as usize]
    }
}

/// Run the full recovery benchmark; panics on contract violations so CI
/// fails loud.
pub fn bench_recovery(
    model: Arc<TransformerImputer>,
    cfg: &RecoveryBenchConfig,
) -> RecoveryBenchReport {
    assert!(
        cfg.worker_panic_every != 1,
        "worker_panic_every = 1 poisons every retry by construction"
    );
    let wlen = cfg.interval_len * cfg.window_intervals;
    let ws = crate::small_windows(720, cfg.seed, wlen, cfg.interval_len);
    let (updates, port, queues) = crate::interval_stream(&ws, cfg.intervals);
    let enforced = updates.len() - (cfg.window_intervals - 1);

    // Pass 1: ground truth.
    let clean = lockstep_pass(
        &model,
        cfg,
        &updates,
        port,
        queues,
        ProcessFaultPlan::none(),
        false,
    );
    assert_eq!(
        clean.replies.answered(),
        enforced,
        "clean pass dropped replies"
    );
    assert_eq!(clean.violations, 0, "clean pass shipped violations");
    assert_eq!(clean.worker_panics, 0);

    // Pass 2: worker panics + solver stalls + slow writes + a killed
    // connection, resumed. Same replies, bit for bit.
    let crash = lockstep_pass(&model, cfg, &updates, port, queues, cfg.faults(), true);
    assert_eq!(
        crash.replies.answered(),
        enforced,
        "crash pass must answer every enforced interval exactly once"
    );
    assert_eq!(crash.violations, 0, "crash pass shipped violations");
    assert!(crash.worker_panics >= 1, "panic cadence never fired");
    assert!(crash.worker_restarts >= 1, "supervisor never restarted");
    assert_eq!(crash.resumes, 1, "the killed connection must resume");
    let clean_fp = clean.replies.fingerprint();
    let crash_fp = crash.replies.fingerprint();
    assert_eq!(
        clean_fp, crash_fp,
        "recovered run diverged from the uninterrupted run"
    );

    let mut rec = crash.requeue_latencies_us.clone();
    rec.sort_unstable();

    // Pass 3: the chaos swarm with resumption — nothing lost, nothing
    // unsent, no client thread down.
    let handle = fmml_serve::spawn(
        Arc::clone(&model),
        ServerConfig {
            workers: cfg.workers,
            deadline: cfg.deadline,
            max_restarts: 64,
            process_faults: cfg.faults(),
            ..ServerConfig::default()
        },
    )
    .expect("spawn chaos server");
    let lg = LoadgenConfig {
        addr: handle.addr().to_string(),
        clients: cfg.chaos_clients,
        intervals: cfg.chaos_intervals,
        interval_len: cfg.interval_len,
        window_intervals: cfg.window_intervals,
        sim: SimConfig::small(),
        sim_ms: 480,
        distinct_traces: 2.min(cfg.chaos_clients.max(1)),
        seed: cfg.seed,
        deadline: cfg.deadline,
        pace: Some(cfg.deadline / 2),
        chaos: Some(ChaosConfig::standard()),
        tenant_prefix: "recovery".into(),
        wire: WireCodec::Json,
    };
    let chaos = loadgen::run(&lg);
    let (_, chaos_restarts) = handle.worker_stats();
    let chaos_violations = match handle.shutdown() {
        Frame::StatsReply { violations, .. } => violations,
        other => panic!("expected StatsReply, got {other:?}"),
    };
    assert_eq!(chaos.lost, 0, "chaos swarm lost replies: {chaos:?}");
    assert_eq!(chaos.unsent, 0, "chaos swarm gave up sending: {chaos:?}");
    assert_eq!(chaos.client_failures, 0, "chaos swarm client panicked");
    assert_eq!(chaos_violations, 0, "chaos swarm shipped violations");

    RecoveryBenchReport {
        intervals: updates.len(),
        enforced,
        deadline_ms: cfg.deadline.as_millis() as u64,
        clean_fingerprint: clean_fp,
        crash_fingerprint: crash_fp,
        fingerprint_match: clean_fp == crash_fp,
        worker_panics: crash.worker_panics,
        worker_restarts: crash.worker_restarts,
        resumes: crash.resumes,
        replayed: crash.replayed,
        availability: crash.replies.answered() as f64 / enforced as f64,
        recovery_samples: rec.len(),
        recovery_p50_us: pct(&rec, 0.50),
        recovery_p99_us: pct(&rec, 0.99),
        recovery_max_us: rec.last().copied().unwrap_or(0),
        crash_violations: crash.violations,
        chaos_clients: cfg.chaos_clients,
        chaos_sent: chaos.sent,
        chaos_answered: chaos.answered,
        chaos_lost: chaos.lost,
        chaos_unsent: chaos.unsent,
        chaos_resumes: chaos.resumes,
        chaos_duplicates: chaos.duplicates,
        chaos_reconnects: chaos.reconnects,
        chaos_client_failures: chaos.client_failures,
        chaos_violations,
        chaos_worker_restarts: chaos_restarts,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tiny_recovery_bench_runs_and_serializes() {
        let model = crate::serve_model();
        let cfg = RecoveryBenchConfig {
            intervals: 12,
            worker_panic_every: 4,
            chaos_clients: 2,
            chaos_intervals: 10,
            deadline: Duration::from_millis(200),
            ..RecoveryBenchConfig::default()
        };
        let report = bench_recovery(model, &cfg);
        assert!(report.fingerprint_match);
        assert!(report.worker_restarts >= 1);
        let j = report.to_json();
        assert!(j.contains("\"fingerprint_match\":1"));
        assert!(j.contains("\"chaos_lost\":0"));
    }
}
