//! The cluster benchmark behind `BENCH_cluster.json`: sharded serving
//! through the `fmml-cluster` router vs a single direct node.
//!
//! Three passes, all over real loopback TCP:
//!
//! 1. **direct** — one 1-worker serve node driven by the trace-replay
//!    load generator, unpaced (capacity, not wire rate).
//! 2. **cluster** — the same load through 1 router + N 1-worker
//!    backends. On a multi-core box the shards process windows
//!    concurrently, so throughput should scale toward N× despite the
//!    extra hop (CI gates `speedup >= 1.8` with 3 backends on the
//!    4-core runner; a 1-core box serializes the shards and only shows
//!    the router's overhead — see the `cores` field).
//! 3. **kill** — a paced chaos pass that shuts one of the backends down
//!    mid-run, plus a single surgically-timed session whose host
//!    backend is killed between two intervals. Both must lose zero
//!    intervals (exactly-once across migration is asserted, not
//!    sampled), and the timed pass reports `recovery_ms`: client-visible
//!    stall between the kill and the next committed reply.
//!
//! Like the other bench reports the JSON is flat so CI can grep single
//! fields, and a written report is itself proof the survival contract
//! held — `bench_cluster` panics on any lost interval or violation.

use crate::client::{Session, SessionSpec};
use fmml_cluster::{RouterConfig, RouterHandle};
use fmml_core::streaming::IntervalUpdate;
use fmml_core::transformer_imputer::TransformerImputer;
use fmml_netsim::SimConfig;
use fmml_serve::{
    loadgen, LoadReport, LoadgenConfig, ServerConfig, ServerHandle, TcpConnector, WireCodec,
};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Benchmark knobs.
#[derive(Debug, Clone)]
pub struct ClusterBenchConfig {
    /// Concurrent load-generator clients per pass.
    pub clients: usize,
    pub intervals_per_client: usize,
    /// Backend serve nodes behind the router (the direct pass always
    /// uses exactly one node of the same shape).
    pub backends: usize,
    pub interval_len: usize,
    pub window_intervals: usize,
    pub deadline: Duration,
    pub seed: u64,
}

impl Default for ClusterBenchConfig {
    fn default() -> ClusterBenchConfig {
        ClusterBenchConfig {
            clients: 8,
            intervals_per_client: 40,
            backends: 3,
            interval_len: 10,
            window_intervals: 3,
            deadline: Duration::from_millis(50),
            seed: 41,
        }
    }
}

/// One throughput point (direct or cluster).
#[derive(Debug, Clone)]
pub struct ClusterPoint {
    pub answered: u64,
    pub lost: u64,
    pub p50_us: u64,
    pub p99_us: u64,
    pub throughput_rps: f64,
}

impl ClusterPoint {
    fn from_report(r: &LoadReport) -> ClusterPoint {
        ClusterPoint {
            answered: r.answered,
            lost: r.lost,
            p50_us: r.p50_us,
            p99_us: r.p99_us,
            throughput_rps: r.throughput_rps,
        }
    }
}

/// One `BENCH_cluster.json` payload.
#[derive(Debug, Clone)]
pub struct ClusterBenchReport {
    /// Host parallelism when the numbers were taken: the speedup gate
    /// only means anything with `cores > backends`.
    pub cores: usize,
    pub backends: usize,
    pub clients: usize,
    pub intervals_per_client: usize,
    pub deadline_ms: u64,
    pub direct: ClusterPoint,
    pub cluster: ClusterPoint,
    /// cluster throughput / direct throughput.
    pub speedup: f64,
    /// The paced chaos pass with one backend shut down mid-run.
    pub kill: ClusterPoint,
    pub kill_migrations: u64,
    pub kill_resumes: u64,
    /// Client-visible stall across a surgically-timed host kill: ms
    /// from the kill to the next committed (bitwise-checked) reply.
    pub recovery_ms: f64,
}

impl ClusterBenchReport {
    /// Deterministic, grep-friendly flat JSON.
    pub fn to_json(&self) -> String {
        use serde_json::Value;
        let mut v = Value::Object(Vec::new());
        v["bench"] = Value::String("cluster".into());
        v["cores"] = Value::U64(self.cores as u64);
        v["backends"] = Value::U64(self.backends as u64);
        v["clients"] = Value::U64(self.clients as u64);
        v["intervals_per_client"] = Value::U64(self.intervals_per_client as u64);
        v["deadline_ms"] = Value::U64(self.deadline_ms);
        for (name, p) in [
            ("direct", &self.direct),
            ("cluster", &self.cluster),
            ("kill", &self.kill),
        ] {
            v[format!("{name}_answered").as_str()] = Value::U64(p.answered);
            v[format!("{name}_lost").as_str()] = Value::U64(p.lost);
            v[format!("{name}_p50_us").as_str()] = Value::U64(p.p50_us);
            v[format!("{name}_p99_us").as_str()] = Value::U64(p.p99_us);
            v[format!("{name}_throughput_rps").as_str()] = Value::F64(p.throughput_rps);
        }
        v["speedup"] = Value::F64(self.speedup);
        v["kill_migrations"] = Value::U64(self.kill_migrations);
        v["kill_resumes"] = Value::U64(self.kill_resumes);
        v["recovery_ms"] = Value::F64(self.recovery_ms);
        v.to_string()
    }

    /// Stderr progress lines.
    pub fn summary(&self) -> String {
        format!(
            "direct   answered={:<5} p99={}us {:.0} rps\n\
             cluster  answered={:<5} p99={}us {:.0} rps  ({:.2}x, {} backends, {} cores)\n\
             kill     answered={:<5} lost={} migrations={} recovery={:.1}ms\n",
            self.direct.answered,
            self.direct.p99_us,
            self.direct.throughput_rps,
            self.cluster.answered,
            self.cluster.p99_us,
            self.cluster.throughput_rps,
            self.speedup,
            self.backends,
            self.cores,
            self.kill.answered,
            self.kill.lost,
            self.kill_migrations,
            self.recovery_ms,
        )
    }
}

fn backend_cfg(bc: &ClusterBenchConfig) -> ServerConfig {
    ServerConfig {
        // One worker per node: the cluster's parallelism comes from the
        // shards, so the direct-vs-cluster comparison is node-for-node.
        workers: 1,
        jobs: 1,
        deadline: bc.deadline,
        ..ServerConfig::default()
    }
}

fn loadgen_cfg(bc: &ClusterBenchConfig, addr: String, pace: Option<Duration>) -> LoadgenConfig {
    LoadgenConfig {
        addr,
        clients: bc.clients,
        intervals: bc.intervals_per_client,
        interval_len: bc.interval_len,
        window_intervals: bc.window_intervals,
        sim: SimConfig::small(),
        sim_ms: 480,
        distinct_traces: 4.min(bc.clients.max(1)),
        seed: bc.seed,
        deadline: bc.deadline,
        pace,
        chaos: None,
        tenant_prefix: "cbench".into(),
        wire: WireCodec::Json,
    }
}

struct Cluster {
    router: RouterHandle,
    backends: Vec<ServerHandle>,
}

fn spawn_cluster(model: &Arc<TransformerImputer>, bc: &ClusterBenchConfig, n: usize) -> Cluster {
    let router = fmml_cluster::spawn(RouterConfig {
        probe_interval: Duration::from_millis(50),
        probe_failures: 2,
        dial_timeout: Duration::from_millis(500),
        ..RouterConfig::default()
    })
    .expect("spawn bench router");
    let backends: Vec<ServerHandle> = (0..n)
        .map(|_| fmml_serve::spawn(Arc::clone(model), backend_cfg(bc)).expect("spawn backend"))
        .collect();
    for (k, b) in backends.iter().enumerate() {
        router.add_backend(
            &format!("b{k}"),
            TcpConnector {
                addr: b.addr().to_string(),
            },
        );
    }
    Cluster { router, backends }
}

/// Pass 1: one direct node, unpaced.
fn direct_point(model: &Arc<TransformerImputer>, bc: &ClusterBenchConfig) -> LoadReport {
    let handle = fmml_serve::spawn(Arc::clone(model), backend_cfg(bc)).expect("spawn direct node");
    let report = loadgen::run(&loadgen_cfg(bc, handle.addr().to_string(), None));
    handle.shutdown();
    report
}

/// Pass 2: router + N backends, unpaced.
fn cluster_point(model: &Arc<TransformerImputer>, bc: &ClusterBenchConfig) -> LoadReport {
    let c = spawn_cluster(model, bc, bc.backends);
    let report = loadgen::run(&loadgen_cfg(bc, c.router.addr().to_string(), None));
    c.router.shutdown();
    for b in c.backends {
        b.shutdown();
    }
    report
}

/// Pass 3a: paced load with one backend shut down mid-run. The clients
/// talk only to the router and must not notice.
fn kill_point(model: &Arc<TransformerImputer>, bc: &ClusterBenchConfig) -> (LoadReport, u64, u64) {
    let mut c = spawn_cluster(model, bc, bc.backends);
    let victim = c.backends.remove(0);
    let killer = std::thread::spawn(move || {
        // Paced run length is intervals * pace; strike inside it.
        std::thread::sleep(Duration::from_millis(150));
        victim.shutdown();
    });
    let report = loadgen::run(&loadgen_cfg(
        bc,
        c.router.addr().to_string(),
        Some(Duration::from_millis(10)),
    ));
    killer.join().expect("killer thread");
    let (migrations, resumes, _replayed) = c.router.cluster_stats();
    c.router.shutdown();
    for b in c.backends {
        b.shutdown();
    }
    (report, migrations, resumes)
}

/// Pass 3b: the surgically-timed kill. One session on a known host
/// ("a", the only backend), a second node joins, the host dies between
/// two intervals, and we time the stall until the next reply commits.
/// Exactly-once is asserted through the final `ByeAck` accounting.
fn timed_recovery(model: &Arc<TransformerImputer>, bc: &ClusterBenchConfig) -> f64 {
    let span = bc.interval_len * bc.window_intervals * 4;
    let w = crate::small_windows(360, bc.seed, span, bc.interval_len).remove(0);
    let router = fmml_cluster::spawn(RouterConfig {
        probe_interval: Duration::from_millis(50),
        probe_failures: 2,
        dial_timeout: Duration::from_millis(500),
        ..RouterConfig::default()
    })
    .expect("spawn recovery router");
    let a = fmml_serve::spawn(Arc::clone(model), backend_cfg(bc)).expect("spawn backend a");
    router.add_backend(
        "a",
        TcpConnector {
            addr: a.addr().to_string(),
        },
    );

    let spec = SessionSpec {
        tenant: "cbench",
        port: w.port,
        queues: w.num_queues(),
        interval_len: bc.interval_len,
        window_intervals: bc.window_intervals,
        codec: WireCodec::Json,
    };
    let (mut session, _) = Session::open(router.addr(), &spec, None);
    let total = w.intervals().min(8);
    let split = total / 2;
    let mut send_one = |seq: u64, k: usize| {
        session.step(seq, &IntervalUpdate::from_window(&w, k));
    };
    for (k, seq) in (0..split).zip(1u64..) {
        send_one(seq, k);
    }

    let b = fmml_serve::spawn(Arc::clone(model), backend_cfg(bc)).expect("spawn backend b");
    router.add_backend(
        "b",
        TcpConnector {
            addr: b.addr().to_string(),
        },
    );
    a.shutdown();
    let t0 = Instant::now();
    send_one(split as u64 + 1, split);
    let recovery = t0.elapsed();
    for (k, seq) in (split + 1..total).zip(split as u64 + 2..) {
        send_one(seq, k);
    }
    assert_eq!(session.bye(), total as u64, "kill lost an interval");
    let (migrations, _, _) = router.cluster_stats();
    assert!(migrations >= 1, "the timed kill must force a migration");
    router.shutdown();
    b.shutdown();
    recovery.as_secs_f64() * 1e3
}

/// Run the full cluster benchmark; panics on any lost interval or
/// shipped violation so CI fails loud.
pub fn bench_cluster(
    model: Arc<TransformerImputer>,
    bc: &ClusterBenchConfig,
) -> ClusterBenchReport {
    let direct = direct_point(&model, bc);
    assert_eq!(direct.lost, 0, "direct pass lost replies");
    assert_eq!(direct.server_violations, 0);
    let cluster = cluster_point(&model, bc);
    assert_eq!(cluster.lost, 0, "cluster pass lost replies");
    let (kill, kill_migrations, kill_resumes) = kill_point(&model, bc);
    assert_eq!(kill.lost, 0, "backend kill lost client intervals");
    assert_eq!(kill.unknown_levels, 0);
    let recovery_ms = timed_recovery(&model, bc);
    let speedup = if direct.throughput_rps > 0.0 {
        cluster.throughput_rps / direct.throughput_rps
    } else {
        0.0
    };
    ClusterBenchReport {
        cores: std::thread::available_parallelism().map_or(1, |n| n.get()),
        backends: bc.backends,
        clients: bc.clients,
        intervals_per_client: bc.intervals_per_client,
        deadline_ms: bc.deadline.as_millis() as u64,
        direct: ClusterPoint::from_report(&direct),
        cluster: ClusterPoint::from_report(&cluster),
        speedup,
        kill: ClusterPoint::from_report(&kill),
        kill_migrations,
        kill_resumes,
        recovery_ms,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tiny_cluster_bench_runs_and_serializes() {
        let model = crate::serve_model();
        let bc = ClusterBenchConfig {
            clients: 2,
            intervals_per_client: 8,
            backends: 2,
            deadline: Duration::from_millis(200),
            ..ClusterBenchConfig::default()
        };
        let report = bench_cluster(model, &bc);
        let j = report.to_json();
        assert!(j.contains("\"cluster_throughput_rps\""));
        assert!(j.contains("\"kill_lost\":0"));
        assert!(j.contains("\"cores\""));
        assert!(report.recovery_ms > 0.0);
    }
}
