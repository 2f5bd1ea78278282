//! `fmml-ledger`: the repository's one client-observed benchmark.
//!
//! ```text
//! fmml-ledger --workload <paper-fast|small-smt-routed> --seed N --seconds S --trace 0|1
//! ```
//!
//! One run trains a model (KAL, fixed epochs), imputes held-out windows
//! offline, then serves the trained model from a separate process to two
//! open-loop switches over loopback TCP and checks every reply. With
//! `--trace 0` it reports the end-to-end metrics; with `--trace 1` it
//! reports the per-layer metrics (server stage histograms read over the
//! wire, plus a spanned in-process replay). The last line of stdout is
//! one JSON object; the exit code is non-zero when any check fails.

mod load;
mod node;
mod offline;
mod stats;
mod wait;
mod workload;

use load::{ClientLog, Controller, Outcome, PhaseResult, PhaseSpec, SwitchClient, SwitchStream};
use node::{Node, ServerStats};
use offline::{TraceCost, TrainOutcome};
use serde_json::Value;
use stats::{mean, quantile, sorted, supported_quantile, SpanLog};
use std::io::Write as _;
use std::net::TcpStream;
use std::time::{Duration, Instant};
use workload::Workload;

/// A run is invalid (not merely slow) when the generator itself sent
/// its intervals later than this at the 99th percentile.
const GEN_LATE_LIMIT_MS: f64 = 10.0;

/// Setups per untraced run; `setup_s` is their median.
const SETUPS: usize = 3;

/// Rounds of alternating light and heavy phases in an untraced run;
/// light and heavy take 0.35 of `--seconds` each over all rounds.
const ROUNDS: usize = 8;

/// Share of `--seconds` each ladder rung above `heavy` runs.
const RUNG_FRAC: f64 = 0.075;

/// Share of `--seconds` of the unreported warm phase of an untraced run.
const WARM_FRAC: f64 = 0.1;

/// Full windows replayed with spans in a traced run.
const TRACED_WINDOWS: usize = 48;

struct Opts {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    corrupt_reply: bool,
}

impl Opts {
    fn parse(args: &[String]) -> Result<Opts, String> {
        let mut o = Opts {
            workload: String::new(),
            seed: 1,
            seconds: 10.0,
            trace: false,
            corrupt_reply: false,
        };
        let mut it = args.iter();
        while let Some(a) = it.next() {
            let mut val = || it.next().cloned().ok_or(format!("{a} needs a value"));
            match a.as_str() {
                "--workload" => o.workload = val()?,
                "--seed" => o.seed = val()?.parse().map_err(|e| format!("--seed: {e}"))?,
                "--seconds" => {
                    o.seconds = val()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                    if o.seconds.is_nan() || o.seconds < 1.0 {
                        return Err("--seconds must be at least 1".into());
                    }
                }
                "--trace" => o.trace = val()? == "1",
                // Test hook: flip one value of one served reply before the
                // checks, which must then fail.
                "--corrupt-reply" => o.corrupt_reply = true,
                other => return Err(format!("unknown argument {other}")),
            }
        }
        Ok(o)
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) == Some("node") {
        std::process::exit(node::main(&args[1..]));
    }
    let code = match Opts::parse(&args) {
        Ok(o) => match Workload::by_name(&o.workload) {
            Some(wl) => run(&o, &wl),
            None => {
                eprintln!(
                    "unknown workload {:?}; one of {:?}",
                    o.workload,
                    Workload::NAMES
                );
                2
            }
        },
        Err(e) => {
            eprintln!("usage: fmml-ledger --workload W --seed N --seconds S --trace 0|1 ({e})");
            2
        }
    };
    std::process::exit(code);
}

/// Named metrics in print order, each with its unit and sample count.
#[derive(Default)]
struct Metrics(Vec<(String, f64, &'static str, usize)>);

impl Metrics {
    fn put(&mut self, name: &str, value: f64, unit: &'static str, samples: usize) {
        self.0.push((name.to_string(), value, unit, samples));
    }

    /// p50 and p99 of a sample under `name.p50` / `name.p99`.
    fn pcts(&mut self, name: &str, v: Vec<f64>, unit: &'static str) {
        let n = v.len();
        let v = sorted(v);
        self.put(&format!("{name}.p50"), quantile(&v, 0.5), unit, n);
        self.put(&format!("{name}.p99"), quantile(&v, 0.99), unit, n);
    }
}

/// Failed checks, by name.
#[derive(Default)]
struct Checks(Vec<String>);

impl Checks {
    fn require(&mut self, ok: bool, what: String) {
        println!("check {} {what}", if ok { "ok  " } else { "FAIL" });
        if !ok {
            self.0.push(what);
        }
    }
}

fn run(o: &Opts, wl: &Workload) -> i32 {
    let mut checks = Checks::default();
    let mut m = Metrics::default();
    println!(
        "ledger workload={} wire_rate={}ips seed={} seconds={} trace={} nproc={}",
        wl.name,
        wl.wire_rate_ips(),
        o.seed,
        o.seconds,
        o.trace as u8,
        std::thread::available_parallelism().map_or(1, |n| n.get())
    );

    // Training job: KAL training, then offline imputation + Table 1.
    let mut job = offline::train_job(wl, o.seed, o.seconds);
    let abc = job.cem_rows_abc;
    checks.require(
        abc == [0.0; 3],
        format!("table1 CEM rows a-c are zero on consistent windows ({abc:?})"),
    );
    println!(
        "table1 CEM rows a-c over all {} test windows: {:?}; {} with contradictory measurements",
        job.test_windows,
        job.all_rows_abc,
        job.infeasible_windows.len()
    );
    for e in &job.infeasible_windows {
        println!("inconsistent telemetry: {e}");
    }
    let model_json = job.model.save_json();

    let s = o.seconds;
    let phase = |name: &str, rate_ips: f64, frac: f64, ladder: bool| PhaseSpec {
        name: name.into(),
        rate_ips,
        dur: Duration::from_secs_f64(frac * s),
        ladder,
    };
    let mut trace_cost = job.trace_cost;
    let (phases, logs, stats, setup_s, streams, dumps) = if o.trace {
        // Untraced light phase for the overhead ratio, then the traced
        // session the per-layer numbers come from.
        let plan_a = vec![phase("light.untraced", wl.light_ips, 0.3, false)];
        let plan_b = vec![
            phase("light", wl.light_ips, 0.35, false),
            phase("heavy", wl.heavy_ips, 0.35, false),
        ];
        let a = serve_session(wl, o, &model_json, false, plan_a, 1, &mut trace_cost);
        let b = serve_session(wl, o, &model_json, true, plan_b, 1, &mut trace_cost);
        let (a, b) = match (a, b) {
            (Ok(a), Ok(b)) => (a, b),
            (Err(e), _) | (_, Err(e)) => return fail(&e),
        };
        let mut phases = a.phases;
        phases.extend(b.phases);
        let mut logs = a.logs;
        logs.extend(b.logs);
        let mut stats = a.stats;
        stats.extend(b.stats);
        (phases, logs, stats, b.setup_s, b.streams, b.dumps)
    } else {
        // Light and heavy alternate in rounds, so a slow stretch of the
        // host hits one round of each rather than a whole phase.
        // A first, unreported phase at the heavy rate fills the server's
        // solution cache, as a long-running server's would be.
        let round = 0.35 / ROUNDS as f64;
        let mut plan = vec![phase("warm", wl.heavy_ips, WARM_FRAC, false)];
        for r in 0..ROUNDS {
            plan.push(phase(&format!("light.{r}"), wl.light_ips, round, false));
            plan.push(phase(&format!("heavy.{r}"), wl.heavy_ips, round, false));
        }
        for &rate in wl.ladder_ips {
            plan.push(phase(&format!("rung.{rate}"), rate, RUNG_FRAC, true));
        }
        match serve_session(wl, o, &model_json, false, plan, SETUPS, &mut trace_cost) {
            Ok(r) => (r.phases, r.logs, r.stats, r.setup_s, r.streams, r.dumps),
            Err(e) => return fail(&e),
        }
    };

    // Three trainings and imputations in all, spread over the run: one
    // before serving, one between serving and the replay, one after.
    job.repeat();

    // Correctness: server counters, client re-check, bitwise replay.
    for s in &stats {
        println!(
            "server accepted={} busy={} malformed={} replies={} deadline_misses={} violations={}",
            s.accepted, s.rejected, s.malformed, s.replies, s.deadline_misses, s.violations
        );
    }
    let relaxed = logs
        .iter()
        .flat_map(|l| &l.served)
        .filter(|r| !r.enforced)
        .count();
    println!("replies with relaxed measurements: {relaxed}");
    let server_violations: u64 = stats.iter().map(|s| s.violations).sum();
    checks.require(
        server_violations == 0,
        format!("servers report violations == 0 (got {server_violations})"),
    );
    let client_violations: u64 = logs.iter().map(|l| l.violations).sum();
    let answered: usize = logs.iter().map(|l| l.served.len()).sum();
    checks.require(
        client_violations == 0,
        format!("every served reply satisfies its interval's constraints ({answered} replies, {client_violations} violations)"),
    );
    // Both sessions of a traced run replay against their own logs; the
    // streams are identical because they come from the same seed.
    let per_session = streams.len();
    let mut compared = 0;
    for chunk in logs.chunks(per_session) {
        let r = offline::replay_check(&job.model, wl, &streams, chunk);
        compared += r.compared;
        checks.require(
            r.mismatched == 0 && r.served_fingerprint == r.replay_fingerprint,
            format!(
                "served series fingerprint {:016x} == offline replay {:016x} ({} compared, {} differ)",
                r.served_fingerprint, r.replay_fingerprint, r.compared, r.mismatched
            ),
        );
    }
    checks.require(compared > 0, format!("replies compared > 0 ({compared})"));

    job.repeat();
    let fp = &job.param_fingerprints;
    println!(
        "train examples={} steps={} secs={:.3?} param_fingerprint={:016x}",
        job.examples, job.steps, job.train_s, fp[0]
    );
    checks.require(
        fp.iter().all(|&f| f == fp[0]),
        format!(
            "{} trainings of one seed give one parameter fingerprint",
            fp.len()
        ),
    );
    let ifp = &job.impute_fingerprints;
    println!(
        "impute windows={} secs={:.3?} output_fingerprint={:016x}",
        job.test_windows, job.impute_s, ifp[0]
    );
    checks.require(
        ifp.iter().all(|&f| f == ifp[0]),
        format!(
            "{} offline imputations give one output fingerprint",
            ifp.len()
        ),
    );
    let train_s = best(&job.train_s);
    let impute_s = best(&job.impute_s);

    // Failure accounting for every phase. The result line leaves the
    // ladder out: each rung after the last passing one is meant to fail,
    // so its failures measure capacity (`max_rate_ips`), not a fault.
    // `failed_share` counts every phase.
    let count = |ladder: bool| {
        phases
            .iter()
            .filter(|p| ladder || !p.name.starts_with("rung."))
            .fold((0, 0), |(a, f), p| (a + p.attempted, f + p.failed))
    };
    let (attempted, failed) = count(true);
    let (measured, measured_failed) = count(false);
    print_outcomes(&logs, &phases);
    // The generator shares the host with the server, so a ladder rung
    // that overloads the server also delays the generator. Lateness only
    // adds to measured latency, so it cannot change a failed rung's
    // verdict; every other phase must have been sent on time.
    let late: Vec<f64> = phases
        .iter()
        .filter(|p| !p.name.starts_with("rung.") || p.passes())
        .flat_map(|p| p.late_ms.iter().copied())
        .collect();
    let late_p99 = quantile(&sorted(late.clone()), 0.99);
    checks.require(
        late_p99 <= GEN_LATE_LIMIT_MS,
        format!(
            "generator valid: p99 lateness {late_p99:.3} ms <= {GEN_LATE_LIMIT_MS} ms ({} sends outside failed rungs)",
            late.len()
        ),
    );
    println!(
        "failed_share {:.6} ratio ({failed} of {attempted} attempted intervals; {measured_failed} of {measured} outside the ladder)",
        failed as f64 / attempted.max(1) as f64
    );

    if o.trace {
        let named = |name: &str| {
            phases
                .iter()
                .find(|p| p.name == name)
                .cloned()
                .unwrap_or_default()
        };
        let mut spans = SpanLog::new();
        let layers =
            offline::traced_replay(&job.model, wl, &streams[0], TRACED_WINDOWS, &mut spans);
        offline::traced_kal_terms(&job.model, wl, o.seed, 8, &mut spans);
        checks.require(
            layers.forward_mismatches == 0,
            format!(
                "traced forward passes equal try_prepare's on the same window ({} differ)",
                layers.forward_mismatches
            ),
        );
        let out =
            std::path::Path::new("ledger-runs").join(format!("spans-{}-{}.jsonl", wl.name, o.seed));
        if let Err(e) = spans.write_jsonl(&out) {
            eprintln!("could not write {}: {e}", out.display());
        }
        for name in offline::SPAN_NAMES {
            let own = spans.self_ms(name);
            println!(
                "span {name:<22} n={:<5} total={:.3}ms self={:.3}ms",
                own.len(),
                spans.durations_ms(name).iter().sum::<f64>(),
                own.iter().sum::<f64>()
            );
        }
        let traced: Vec<PhaseResult> = phases
            .iter()
            .filter(|p| p.name != "light.untraced")
            .cloned()
            .collect();
        layer_metrics(
            &mut m, &job, &spans, &layers, &dumps, &traced, &logs, trace_cost,
        );
        let untraced = named("light.untraced").pct(0.5);
        m.put(
            "obs.trace_overhead",
            named("light").pct(0.5) / untraced,
            "ratio",
            2,
        );
        m.put("gen.late_ms", late_p99, "ms", late.len());
    } else {
        // Each rate's rounds are pooled, except that p50 is the lowest of
        // the rounds' p50s: the rest of the host only ever adds latency,
        // and the least disturbed round is the steadiest estimate. The
        // ladder is light, heavy, then the rungs in ascending rate; it
        // stopped at its first failed rung.
        let mut ladder = Vec::new();
        for name in ["light", "heavy"] {
            let rounds: Vec<PhaseResult> = phases
                .iter()
                .filter(|p| p.name.split('.').next() == Some(name))
                .cloned()
                .collect();
            let p50s: Vec<f64> = rounds.iter().map(|r| r.pct(0.5)).collect();
            let goodput: Vec<f64> = rounds.iter().map(PhaseResult::goodput_ips).collect();
            let p = load::merge(rounds);
            let n = p.attempted;
            m.put(&format!("p50_ms.{name}"), best(&p50s), "ms", n);
            m.put(&format!("p99_ms.{name}"), p.pct(0.99), "ms", n);
            println!(
                "{name}: round p50s {p50s:.3?} ms; pooled p50 {:.3} ms",
                p.pct(0.5)
            );
            let q = supported_quantile(n);
            println!(
                "{name}: {n} samples at {} ips in {ROUNDS} rounds; highest supported percentile p{:.2} = {:.3} ms",
                p.rate_ips,
                q * 100.0,
                p.pct(q)
            );
            if name == "heavy" {
                m.put("goodput_share.heavy", p.goodput_share(), "ratio", n);
            }
            ladder.push((p, mean(&goodput)));
        }
        ladder.extend(
            phases
                .iter()
                .filter(|p| p.name.starts_with("rung."))
                .map(|p| (p.clone(), p.goodput_ips())),
        );
        let best = ladder.iter().take_while(|(p, _)| p.passes()).last();
        let (max_rate, top) = best.map_or((0.0, 0), |(p, goodput)| (*goodput, p.attempted));
        m.put("max_rate_ips", max_rate, "port-intervals/s", top);
        m.put(
            "train_examples_per_s",
            job.examples as f64 / train_s,
            "examples/s",
            job.examples,
        );
        m.put(
            "impute_windows_per_s",
            job.test_windows as f64 / impute_s,
            "windows/s",
            job.test_windows,
        );
        m.put("setup_s", setup_s, "s", SETUPS);
        println!("gen.late_ms {late_p99:.4} ms (p99 of {} sends)", late.len());
    }

    for (name, v, unit, n) in &m.0 {
        println!("metric {name} {v} {unit} n={n}");
    }
    // The result line carries exactly the metrics BENCHMARK.json declares
    // for this mode, in its order; the text above prints every one.
    let section = if o.trace { "per_layer" } else { "end_to_end" };
    let mut fields = Vec::new();
    for (name, unit) in declared(section) {
        match m.0.iter().find(|(n, ..)| *n == name) {
            Some((_, v, u, _)) if *u == unit => {
                let v = if v.is_finite() { *v } else { 0.0 };
                fields.push(format!(
                    "\"{name}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}"
                ));
            }
            found => checks.require(
                false,
                format!("declared metric {name} [{unit}] measured ({found:?})"),
            ),
        }
    }
    let correct = checks.0.is_empty();
    let json = format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {measured_failed}, \"metrics\": {{{}}}}}",
        measured.max(1),
        fields.join(", ")
    );
    println!("{json}");
    let _ = std::io::stdout().flush();
    if correct {
        0
    } else {
        eprintln!("failed checks: {}", checks.0.join("; "));
        1
    }
}

/// The lowest of repeated timings: interference from the rest of the
/// host and a cold heap only ever slow a repeat down.
fn best(times: &[f64]) -> f64 {
    times.iter().copied().fold(f64::INFINITY, f64::min)
}

/// The benchmark's declaration, compiled in: metric names and units of
/// one section of `BENCHMARK.json`.
fn declared(section: &str) -> Vec<(String, String)> {
    let spec: Value = serde_json::from_str(include_str!("../../BENCHMARK.json"))
        .expect("BENCHMARK.json is valid JSON");
    spec.get(section)
        .and_then(Value::as_array)
        .map(|list| {
            list.iter()
                .filter_map(|m| {
                    let s = |k: &str| m.get(k).and_then(Value::as_str).map(str::to_string);
                    Some((s("name")?, s("unit")?))
                })
                .collect()
        })
        .unwrap_or_default()
}

fn fail(e: &str) -> i32 {
    eprintln!("benchmark aborted: {e}");
    1
}

/// What one served session produced.
struct Session {
    phases: Vec<PhaseResult>,
    logs: Vec<ClientLog>,
    stats: Vec<ServerStats>,
    setup_s: f64,
    streams: Vec<SwitchStream>,
    /// The serving process's metrics after warm-up and after the plan
    /// (`Null` unless traced).
    dumps: [Value; 2],
}

/// Set up `setups` times (keeping the last), run `plan` open-loop, and
/// shut the serving process down.
fn serve_session(
    wl: &Workload,
    o: &Opts,
    model_json: &str,
    trace: bool,
    plan: Vec<PhaseSpec>,
    setups: usize,
    trace_cost: &mut TraceCost,
) -> Result<Session, String> {
    let needed: f64 = plan.iter().map(|p| p.rate_ips * p.dur.as_secs_f64()).sum();
    let per_switch =
        (needed / wl.switches as f64 * 1.05) as usize + 2 * wl.window_intervals * wl.ports();
    let mut setup_times = Vec::new();
    let mut kept = None;
    for k in 0..setups {
        let t = Instant::now();
        let (streams, cost) = offline::switch_streams(wl, o.seed, per_switch);
        trace_cost.add(cost);
        let node = Node::spawn(wl, model_json, trace)?;
        setup_times.push(t.elapsed().as_secs_f64());
        if k + 1 < setups {
            // Only the timing of this set-up is kept: warm up, then tear down.
            let t = Instant::now();
            let s = warm_up(wl, &node, &streams)?;
            setup_times[k] += t.elapsed().as_secs_f64();
            s.into_iter().for_each(|c| drop(c.bye()));
            node.shutdown()?;
        } else {
            kept = Some((node, streams));
        }
    }
    let (node, streams) = kept.expect("at least one set-up");
    let t = Instant::now();
    let mut clients = warm_up(wl, &node, &streams)?;
    *setup_times.last_mut().expect("set-up time") += t.elapsed().as_secs_f64();
    let warm_dump = if trace {
        metrics_dump(&node.addr)?
    } else {
        Value::Null
    };
    if o.corrupt_reply {
        clients[0].corrupt_next = true;
    }
    let switches = clients.len();
    let ctl = Controller::new(switches, plan);
    let logs: Vec<ClientLog> = std::thread::scope(|s| {
        let mut clients = clients.into_iter();
        let mut first = clients.next().expect("one switch");
        let ctl = &ctl;
        let others: Vec<_> = clients
            .map(|mut c| {
                s.spawn(move || {
                    ctl.drive(&mut c, switches);
                    c.bye()
                })
            })
            .collect();
        ctl.drive(&mut first, switches);
        let mut logs = vec![first.bye()];
        logs.extend(others.into_iter().map(|h| h.join().expect("switch thread")));
        logs
    });
    let dump = if trace {
        metrics_dump(&node.addr)?
    } else {
        Value::Null
    };
    let stats = node.shutdown()?;
    Ok(Session {
        phases: ctl.results(),
        logs,
        stats,
        setup_s: stats::median(setup_times),
        streams,
        dumps: [warm_dump, dump],
    })
}

fn warm_up<'a>(
    wl: &Workload,
    node: &Node,
    streams: &'a [SwitchStream],
) -> Result<Vec<SwitchClient<'a>>, String> {
    let mut clients = Vec::new();
    for s in streams {
        let mut c = SwitchClient::connect(&node.addr, wl, s, &format!("switch-{}", s.switch))?;
        c.warm_up(wl)?;
        clients.push(c);
    }
    Ok(clients)
}

/// The serving process's own metrics, over the wire (`MetricsDump`).
fn metrics_dump(addr: &str) -> Result<Value, String> {
    use fmml_serve::protocol::{write_frame, Frame, FrameReader};
    let conn = TcpStream::connect(addr).map_err(|e| format!("dump connect: {e}"))?;
    conn.set_read_timeout(Some(Duration::from_secs(5)))
        .map_err(|e| e.to_string())?;
    let mut reader = FrameReader::new(conn.try_clone().map_err(|e| e.to_string())?);
    let mut w = conn;
    write_frame(&mut w, &Frame::MetricsDump).map_err(|e| e.to_string())?;
    match reader.read_frame() {
        Ok(Frame::MetricsReply { json }) => {
            serde_json::from_str::<Value>(&json).map_err(|e| format!("dump parse: {e}"))
        }
        other => Err(format!("unexpected dump reply {other:?}")),
    }
}

fn hist(dump: &Value, name: &str, field: &str) -> f64 {
    dump.get("metrics")
        .and_then(|m| m.get("histograms"))
        .and_then(|h| h.get(name))
        .and_then(|h| h.get(field))
        .and_then(Value::as_f64)
        .unwrap_or(0.0)
}

/// Mean of histogram `name` over the samples recorded between two dumps.
fn hist_mean_between([before, after]: &[Value; 2], name: &str) -> f64 {
    let sum = |d: &Value| hist(d, name, "count") * hist(d, name, "mean");
    let n = hist(after, name, "count") - hist(before, name, "count");
    if n > 0.0 {
        (sum(after) - sum(before)) / n
    } else {
        0.0
    }
}

/// Counter `name`'s increase between two dumps.
fn count_between([before, after]: &[Value; 2], name: &str) -> f64 {
    count(after, name) - count(before, name)
}

fn count(dump: &Value, name: &str) -> f64 {
    dump.get("metrics")
        .and_then(|m| m.get("counters"))
        .and_then(|c| c.get(name))
        .and_then(Value::as_f64)
        .unwrap_or(0.0)
}

#[allow(clippy::too_many_arguments)]
fn layer_metrics(
    m: &mut Metrics,
    job: &TrainOutcome,
    spans: &SpanLog,
    layers: &offline::LayerSamples,
    dumps: &[Value; 2],
    traced: &[PhaseResult],
    logs: &[ClientLog],
    cost: TraceCost,
) {
    let dump = &dumps[1];
    let fwd = spans.durations_ms("nn.forward");
    m.pcts("nn.forward_ms", fwd.clone(), "ms");
    m.put(
        "nn.train_step_ms",
        best(&job.train_s) * 1e3 / job.steps as f64,
        "ms",
        job.steps,
    );
    m.put(
        "core.ingest_us",
        stats::median(layers.ingest_us.clone()),
        "us",
        layers.ingest_us.len(),
    );
    let kal = spans.durations_ms("core.kal_terms");
    let n_kal = kal.len();
    m.put("core.kal_terms_ms", stats::median(kal), "ms", n_kal);
    m.pcts("fm.enforce_ms", spans.durations_ms("fm.enforce"), "ms");
    for rung in ["full", "retry", "fast_fallback", "clamp", "relaxed"] {
        let c = count_between(dumps, &format!("fm.cem.ladder.{rung}"));
        m.put(&format!("fm.rung.{rung}"), c, "count", c as usize);
    }
    let hits = count_between(dumps, "fm.cem.cache.hits");
    let lookups = hits + count_between(dumps, "fm.cem.cache.misses");
    m.put(
        "fm.cache_hit_rate",
        hits / lookups.max(1.0),
        "ratio",
        lookups as usize,
    );
    m.pcts("smt.solve_ms", spans.durations_ms("smt.solve"), "ms");
    m.put(
        "smt.conflicts_per_solve",
        layers.smt_conflicts as f64 / layers.smt_solves.max(1) as f64,
        "count",
        layers.smt_solves,
    );
    m.put(
        "smt.budget_exhausted",
        layers.smt_budget_exhausted as f64,
        "count",
        layers.smt_solves,
    );
    let mut stage_mean_ms = 0.0;
    for stage in ["decode", "queue", "batch", "enforce", "encode", "write"] {
        let h = format!("serve.stage.{stage}_us");
        let n = hist(dump, &h, "count") as usize;
        m.put(
            &format!("serve.{stage}_us.p50"),
            hist(dump, &h, "p50"),
            "us",
            n,
        );
        m.put(
            &format!("serve.{stage}_us.p99"),
            hist(dump, &h, "p99"),
            "us",
            n,
        );
        stage_mean_ms += hist_mean_between(dumps, &h) / 1e3;
    }
    let batches = count_between(dumps, "serve.batches") as usize;
    m.put(
        "serve.batch_size",
        hist_mean_between(dumps, "serve.batch_size"),
        "count",
        batches,
    );
    let busy: usize = logs
        .iter()
        .flat_map(|l| &l.attempts)
        .filter(|a| a.outcome == Outcome::Busy)
        .count();
    m.put("serve.busy", busy as f64, "count", busy);
    let frames: Vec<f64> = layers
        .interval_frame_bytes
        .iter()
        .chain(&layers.imputed_frame_bytes)
        .copied()
        .collect();
    m.put(
        "serve.wire_bytes_per_frame",
        mean(&frames),
        "bytes",
        frames.len(),
    );
    let client: Vec<f64> = traced
        .iter()
        .flat_map(|p| p.latencies.iter().copied())
        .collect();
    let client_mean = mean(&client);
    let unattributed = if client_mean > 0.0 {
        (1.0 - stage_mean_ms / client_mean).clamp(0.0, 1.0)
    } else {
        0.0
    };
    m.put(
        "serve.unattributed_share",
        unattributed,
        "ratio",
        client.len(),
    );
    let n = hist(dump, "cluster.route_us", "count") as usize;
    m.put(
        "cluster.route_us.p50",
        hist(dump, "cluster.route_us", "p50"),
        "us",
        n,
    );
    m.put(
        "cluster.route_us.p99",
        hist(dump, "cluster.route_us", "p99"),
        "us",
        n,
    );
    let fwd_count = count_between(dumps, "cluster.forwarded");
    m.put("cluster.forwarded", fwd_count, "count", fwd_count as usize);
    m.put(
        "netsim.sim_ms_per_s",
        cost.sim_ms / cost.sim_wall_s.max(1e-9),
        "ms/s",
        cost.sim_ms as usize,
    );
    m.put(
        "telemetry.windows_per_s",
        cost.windows as f64 / cost.windows_wall_s.max(1e-9),
        "windows/s",
        cost.windows,
    );
}

fn print_outcomes(logs: &[ClientLog], phases: &[PhaseResult]) {
    for p in phases {
        let q = supported_quantile(p.attempted);
        println!(
            "phase {:<15} rate={:<6} attempted={:<5} failed={:<4} answered={:<5} within_50ms={:<5} p50={:.3}ms p99={:.3}ms p{:.1}={:.3}ms gen_late_p99={:.3}ms stopped_early={} passes={}",
            p.name,
            p.rate_ips,
            p.attempted,
            p.failed,
            p.latencies.len(),
            p.within_deadline,
            p.pct(0.5),
            p.pct(0.99),
            q * 100.0,
            p.pct(q),
            quantile(&sorted(p.late_ms.clone()), 0.99),
            p.stopped_early,
            p.passes()
        );
    }
    let mut counts = [0usize; 8];
    for a in logs
        .iter()
        .flat_map(|l| &l.attempts)
        .filter(|a| a.phase != usize::MAX)
    {
        let i = match a.outcome {
            Outcome::Answered { .. } => 0,
            Outcome::Acked => 1,
            Outcome::Busy => 2,
            Outcome::Lost => 3,
            Outcome::Error => 4,
            Outcome::Rejected => 5,
            Outcome::Unsent => 6,
            Outcome::Pending => 7,
        };
        counts[i] += 1;
    }
    let errors: u64 = logs.iter().map(|l| l.server_errors).sum();
    println!(
        "outcomes answered={} acked={} busy={} lost={} error={} rejected={} unsent={} pending={} error_frames={errors}",
        counts[0], counts[1], counts[2], counts[3], counts[4], counts[5], counts[6], counts[7]
    );
}
