//! `fmml` — command-line interface to the telemetry-imputation stack.
//!
//! ```text
//! fmml simulate  --ms 500 --seed 1 --ports 8 --load 0.5      # trace CSV
//! fmml telemetry --ms 500 --seed 1 --interval 50             # coarse CSV
//! fmml train     --out model.json [--kal] [--epochs 30] …    # checkpoint
//! fmml impute    --model model.json --ms 300 --seed 99 [--cem]
//! fmml enforce   --model model.json --jobs 4 [--no-cache]    # batched CEM
//! fmml eval      [--paper] [--epochs N]                      # Table 1
//! fmml fm-solve  --steps 8 --ports 2 --budget-secs 10        # §2.3 model
//! fmml fault-run --seed 7 --jobs 4 [--smt] [--bench-out DIR] # chaos mode
//! fmml serve     --addr 127.0.0.1:4700 [--max-secs N]        # streaming server
//! fmml cluster   --addr 127.0.0.1:4710 --backends 3          # sharded serving
//! fmml loadgen   --addr 127.0.0.1:4700 --clients 8 [--chaos] # trace replay
//! fmml obs       --addr 127.0.0.1:4700 [--json]              # live introspection
//! fmml simtest   --seeds 500 [--inject-bug replay-off-by-one] # DST explorer
//! fmml bench     wire [--out bench]                          # BENCH_wire.json
//! ```
//!
//! The client-observed serving benchmark is the separate `ledger/`
//! package (`cargo run --release --manifest-path ledger/Cargo.toml`).
//!
//! Every command accepts the global observability flags: `--stats` prints
//! the metrics-registry table to stderr on exit, `--stats-json FILE`
//! writes the deterministic JSON snapshot to `FILE`. Structured JSONL run
//! telemetry is enabled via `FMML_LOG=1` (stderr) or `FMML_LOG_FILE=path`.

mod args;
mod error;

use args::Args;
use error::CliError;
use fmml_bench::baseline::Baseline;
use fmml_bench::cem_parallel::{bench_ladder, CemParallelReport};
use fmml_core::eval::{generate_windows, run_table1, EvalConfig};
use fmml_core::imputer::Imputer;
use fmml_core::train::{train, train_from};
use fmml_core::transformer_imputer::{Scales, TransformerImputer};
use fmml_fault::{inject_series, inject_window, FaultPlan};
use fmml_fm::cem::{
    enforce, enforce_degraded_batch, CemEngine, DegradationLevel, EnforceOptions, LadderConfig,
    LadderOutcome, SolutionCache,
};
use fmml_fm::packet_model::{
    reference_execution, solve, Arrival, PacketModelConfig, PacketModelOutcome,
};
use fmml_fm::WindowConstraints;
use fmml_netsim::traffic::TrafficConfig;
use fmml_netsim::{SimConfig, Simulation};
use fmml_obs::log_event;
use fmml_serve::protocol::{write_frame, Frame, FrameReader};
use fmml_serve::{ChaosConfig, LoadgenConfig, ServerConfig, WireCodec};
use fmml_smt::solver::Budget;
use fmml_telemetry::{sanitize_series, sanitize_window, SanitizeConfig, SanitizeReport};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

const USAGE: &str = "\
fmml — formal-methods-augmented telemetry imputation (HotNets '23 reproduction)

USAGE: fmml <command> [--flags]

COMMANDS:
  simulate   run the switch simulator, print the fine-grained trace as CSV
             --ms N (500)  --seed N (1)  --ports N (8)  --load F (0.5)
  telemetry  print the operator's coarse telemetry as CSV
             flags of `simulate` plus --interval N (50)
  train      train a transformer imputer, write a JSON checkpoint
             --out FILE  --kal  --epochs N (30)  --runs N (8)  --ms N (1800)  --seed N (42)
             --resume FILE  continue training from an existing checkpoint
             --smoke        scaled-down config (seconds instead of minutes)
  impute     impute fresh telemetry with a checkpoint
             --model FILE  --ms N (300)  --seed N (99)  --cem
  enforce    impute fresh telemetry and run the CEM degradation ladder
             over every active window, batched (parallel + memoized)
             --model FILE  --ms N (300)  --seed N (99)  --runs N (1)
             --smt  --deadline-ms N  --jobs N (1; 0 = auto)  --no-cache
             --bench-out DIR (sequential-vs-tuned BENCH_cem_parallel.json)
  eval       regenerate Table 1 (markdown)
             --paper  --epochs N
  fm-solve   solve the full §2.3 packet-level model for a scripted scenario
             --steps N (8)  --ports N (2)  --budget-secs N (10)
  fault-run  chaos mode: sim -> inject faults -> sanitize -> impute -> CEM
             degradation ladder; exits non-zero if any output window
             violates its (possibly relaxed) constraints
             --seed N (7)  --runs N (2)  --epochs N (3)  --smt
             --deadline-ms N  --jobs N (1; 0 = auto)  --no-cache
             --bench-out DIR (write BENCH_cem_ladder.json and the
             sequential-vs-tuned BENCH_cem_parallel.json)
  serve      run the streaming imputation server (length-prefixed JSON
             frames over TCP, deadline-aware micro-batching, admission
             control); exits non-zero if any shipped reply violated its
             constraints
             --addr A (127.0.0.1:4700)  --workers N (2)  --jobs N (1)
             --deadline-ms N (50)  --max-batch N (16)  --queue-depth N (64)
             --model FILE (default: deterministic untrained imputer)
             --seed N (3)  --max-secs N (run forever when absent)
             --wire json|bin1 (json; codec preference — binary is used
             only with clients that advertise it in their Hello)
             fault injection (0 = off): --worker-panic-every N
             --solver-stall-every N  --solver-stall-ms N (5)
             --slow-write-every N  --slow-write-ms N (2)
             --max-restarts N (5; per-worker-slot restart budget)
  cluster    run the sharded serving cluster: one router speaking the
             serve wire protocol on both sides, consistent-hash session
             placement over N in-process backend nodes, health-probed
             failover with warm-up migration; exits non-zero if any
             backend shipped a constraint violation
             --addr A (127.0.0.1:4710)  --backends N (3)  --workers N (1)
             --deadline-ms N (50)  --model FILE  --seed N (3)
             --max-secs N (run forever when absent)
             --kill-backend-after-ms N (shut backend 0 down mid-run to
             exercise live migration; 0 = off)
             --wire json|bin1 (json; router + backends prefer the same
             codec, binary sessions pass through without re-encoding)
  loadgen    drive a running server with concurrent trace-replay clients
             --addr A (required)  --clients N (8)  --intervals N (40)
             --seed N (11)  --deadline-ms N (50)  --pace-ms N
             --wire json|bin1 (json; bin1 advertises the binary codec)
             --chaos (standard >= 10% disturbance preset)
             --report-json FILE (write the flat LoadReport JSON)
  obs        query a running server for its live metrics registry, trace
             summaries, and SLO gauges (sends a MetricsDump frame)
             --addr A (127.0.0.1:4700)  --json (raw dump instead of tables)
             --folded FILE (write folded stacks for flamegraph.pl)
  simtest    deterministic simulation testing: seeded schedules of client
             ops x transport faults x worker panics over virtual time,
             the whole server running over an in-memory transport, every
             reply checked against a reference model of the session
             protocol; each violation prints a replayable FMML_SIM_SEED
             --seeds N (100)  --seed N (1; first seed)  --clients N (3)
             --ops N (16)  --json (per-seed JSON lines)
             --wire json|bin1 (json; run the whole sweep under the
             binary codec — fingerprints are codec-independent)
             --pinned FILE   verify the aggregate reply fingerprint
                             against FILE, or write FILE if absent
                             (both modes; the cluster pin also keys on
                             --backends)
             --cluster       multi-node mode: clients -> router -> N
                             backend shards, schedules extended with
                             link flaps, partitions and membership
                             churn; the whole run executes twice and
                             must reproduce bitwise
             --backends N (3; shards per seed, --cluster only)
             --inject-bug replay-off-by-one
                             prove the checker is live: exits 0 iff the
                             deliberately broken replay is caught and
                             reproduced bitwise from the printed seed
  bench      run one benchmark suite at its fixed configuration and write
             DIR/BENCH_<suite>.json; exits non-zero if the suite's
             determinism or delivery contract breaks (the CI thresholds
             live in .github/bench_gate.py)
             fmml bench <suite> [--out DIR (bench)], suites:
             train     scalar-reference vs blocked vs blocked+parallel
                       training; bit-identical parameters asserted
             obs       tracing off/on differential on the serve and train
                       paths; bit-identical outputs asserted
             recovery  clean vs crash lockstep fingerprints (worker panics,
                       solver stalls, slow writes, a resumed disconnect),
                       then a chaos swarm; exactly-once asserted
             cluster   direct node vs router + 3 backends, a mid-run
                       backend kill and a timed migration; zero lost
             wire      JSON vs bin1 codec microbench, cross-codec lockstep
                       fingerprint, end-to-end loadgen under each codec
             The client-observed serving benchmark is the ledger:
             cargo run --release --manifest-path ledger/Cargo.toml

GLOBAL FLAGS:
  --stats            print the metrics table to stderr on exit
  --stats-json FILE  write the metrics snapshot as JSON to FILE on exit

ENVIRONMENT:
  FMML_LOG=1         structured JSONL run telemetry on stderr
  FMML_LOG_FILE=path append structured JSONL run telemetry to a file
  FMML_TRACE=1       enable span tracing (per-thread ring journals)
  FMML_TRACE_RING=N  slots per trace ring (default 4096)
";

fn main() {
    fmml_obs::RunLog::init_from_env();
    fmml_obs::trace::init_from_env();
    let args = match Args::parse(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}\n\n{USAGE}");
            std::process::exit(2);
        }
    };
    let Some(command) = args.command.as_deref() else {
        println!("{USAGE}");
        return;
    };
    log_event!("cli.start", "command" = command);
    let result = match command {
        "simulate" => cmd_simulate(&args),
        "telemetry" => cmd_telemetry(&args),
        "train" => cmd_train(&args),
        "impute" => cmd_impute(&args),
        "enforce" => cmd_enforce(&args),
        "eval" => cmd_eval(&args),
        "fm-solve" => cmd_fm_solve(&args),
        "fault-run" => cmd_fault_run(&args),
        "serve" => cmd_serve(&args),
        "cluster" => cmd_cluster(&args),
        "loadgen" => cmd_loadgen(&args),
        "obs" => cmd_obs(&args),
        "simtest" => cmd_simtest(&args),
        "bench" => cmd_bench(&args),
        other => Err(CliError::Usage(format!("unknown command {other:?}"))),
    };
    log_event!("cli.done", "command" = command, "ok" = result.is_ok());
    if let Err(e) = emit_stats(&args) {
        eprintln!("error: {e}");
        std::process::exit(e.exit_code());
    }
    if let Err(e) = result {
        eprintln!("error: {e}");
        if matches!(e, CliError::Usage(_)) {
            eprintln!("run `fmml` without arguments for usage");
        }
        std::process::exit(e.exit_code());
    }
}

/// Honor the global `--stats` / `--stats-json FILE` flags: snapshot the
/// process-wide metrics registry once and render it both ways.
fn emit_stats(args: &Args) -> Result<(), CliError> {
    let want_table = args.flag("stats");
    let json_path = args.get_string("stats-json");
    if !want_table && json_path.is_none() {
        return Ok(());
    }
    let report = fmml_obs::snapshot();
    if want_table {
        eprint!("{}", report.to_table());
    }
    if let Some(path) = json_path {
        std::fs::write(path, report.to_json()).map_err(|e| CliError::io(path, e))?;
    }
    Ok(())
}

fn sim_config(args: &Args) -> Result<(SimConfig, TrafficConfig, u64, u64), CliError> {
    let mut cfg = SimConfig::paper_default();
    cfg.num_ports = args.get_or("ports", cfg.num_ports)?;
    let load: f64 = args.get_or("load", 0.5)?;
    if !(0.0..=1.0).contains(&load) {
        return Err(CliError::Usage(format!(
            "--load must be within [0,1], got {load}"
        )));
    }
    let traffic = TrafficConfig::websearch_incast(cfg.num_ports, load);
    let ms = args.get_or("ms", 500u64)?;
    let seed = args.get_or("seed", 1u64)?;
    Ok((cfg, traffic, ms, seed))
}

fn cmd_simulate(args: &Args) -> Result<(), CliError> {
    let (cfg, traffic, ms, seed) = sim_config(args)?;
    let gt = Simulation::new(cfg, traffic, seed).run_ms(ms);
    print!("{}", gt.to_csv());
    Ok(())
}

fn cmd_telemetry(args: &Args) -> Result<(), CliError> {
    let (cfg, traffic, ms, seed) = sim_config(args)?;
    let interval = args.get_or("interval", 50usize)?;
    let gt = Simulation::new(cfg, traffic, seed).run_ms(ms);
    let ct = fmml_telemetry::CoarseTelemetry::from_ground_truth(&gt, interval);
    // Header.
    print!("interval");
    for q in 0..ct.num_queues() {
        print!(",sample{q},max{q}");
    }
    for p in 0..ct.num_ports() {
        print!(",recv{p},sent{p},drop{p}");
    }
    println!();
    for k in 0..ct.num_intervals() {
        print!("{k}");
        for q in &ct.queues {
            print!(",{},{}", q.samples[k], q.max[k]);
        }
        for p in &ct.ports {
            print!(",{},{},{}", p.received[k], p.sent[k], p.dropped[k]);
        }
        println!();
    }
    Ok(())
}

fn cmd_train(args: &Args) -> Result<(), CliError> {
    let out = args
        .get_string("out")
        .ok_or_else(|| CliError::Usage("--out FILE is required".into()))?
        .to_string();
    let mut cfg = if args.flag("smoke") {
        EvalConfig::smoke()
    } else {
        EvalConfig::paper()
    };
    cfg.train_runs = args.get_or("runs", cfg.train_runs)?;
    cfg.run_ms = args.get_or("ms", cfg.run_ms)?;
    cfg.seed = args.get_or("seed", cfg.seed)?;
    cfg.train.epochs = args.get_or("epochs", cfg.train.epochs)?;
    if args.flag("kal") {
        cfg.train.kal = Some(cfg.kal);
    }
    let scales = Scales {
        qlen: cfg.sim.buffer_packets as f32,
        count: (cfg.sim.pkts_per_ms() as usize * cfg.interval_len) as f32,
    };
    log_event!(
        "cli.train.start",
        "runs" = cfg.train_runs,
        "run_ms" = cfg.run_ms,
        "epochs" = cfg.train.epochs,
        "kal" = cfg.train.kal.is_some(),
    );
    let windows = generate_windows(&cfg, cfg.seed, cfg.train_runs);
    if windows.is_empty() {
        return Err(CliError::Invalid(
            "no active windows in the simulated span".into(),
        ));
    }
    let (model, stats) = match args.get_string("resume") {
        Some(path) => {
            let json = std::fs::read_to_string(path).map_err(|e| CliError::io(path, e))?;
            let mut model = TransformerImputer::load_json(&json)
                .map_err(|e| CliError::Invalid(format!("--resume {path}: {e}")))?;
            let stats = train_from(&mut model, &windows, &cfg.train);
            (model, stats)
        }
        None => train(&windows, scales, &cfg.train),
    };
    log_event!(
        "cli.train.done",
        "windows" = windows.len(),
        "first_loss" = stats.first().map_or(0.0, |s| s.mean_loss),
        "last_loss" = stats.last().map_or(0.0, |s| s.mean_loss),
        "rollbacks" = stats.iter().filter(|s| s.rolled_back).count(),
    );
    std::fs::write(&out, model.save_json()).map_err(|e| CliError::io(&out, e))?;
    eprintln!("checkpoint written to {out}");
    Ok(())
}

fn cmd_impute(args: &Args) -> Result<(), CliError> {
    let path = args
        .get_string("model")
        .ok_or_else(|| CliError::Usage("--model FILE is required".into()))?;
    let json = std::fs::read_to_string(path).map_err(|e| CliError::io(path, e))?;
    let model = TransformerImputer::load_json(&json)
        .map_err(|e| CliError::Invalid(format!("--model {path}: not a valid checkpoint: {e}")))?;
    let mut cfg = EvalConfig::paper();
    cfg.run_ms = args.get_or("ms", 300u64)?;
    cfg.seed = args.get_or("seed", 99u64)?;
    let windows = generate_windows(&cfg, cfg.seed, 1);
    if windows.is_empty() {
        return Err(CliError::Invalid(
            "no active windows in the simulated span".into(),
        ));
    }
    let use_cem = args.flag("cem");
    println!("window,queue,ms,imputed");
    for (wi, w) in windows.iter().enumerate() {
        let mut series = model.impute(w);
        if use_cem {
            let wc = WindowConstraints::from_window(w);
            if let Ok(out) = enforce(&wc, &series, &CemEngine::Fast) {
                series = out
                    .corrected
                    .iter()
                    .map(|q| q.iter().map(|&v| v as f32).collect())
                    .collect();
            }
        }
        for (q, qs) in series.iter().enumerate() {
            for (t, v) in qs.iter().enumerate() {
                println!("{wi},{q},{},{v:.2}", w.start_bin + t);
            }
        }
    }
    Ok(())
}

fn cmd_eval(args: &Args) -> Result<(), CliError> {
    let mut cfg = if args.flag("paper") {
        EvalConfig::paper()
    } else {
        EvalConfig::smoke()
    };
    if let Some(e) = args.get::<usize>("epochs")? {
        cfg.train.epochs = e;
    }
    log_event!(
        "cli.eval.start",
        "epochs" = cfg.train.epochs,
        "paper" = args.flag("paper")
    );
    let report = run_table1(&cfg);
    println!("{}", report.to_markdown());
    // Always embed the metrics snapshot so an eval report is
    // self-describing: the table plus the solver/training/sim work that
    // produced it, in the same deterministic JSON as --stats-json.
    println!("## Metrics\n");
    println!("```json\n{}\n```", fmml_obs::snapshot().to_json());
    Ok(())
}

fn cmd_fm_solve(args: &Args) -> Result<(), CliError> {
    let steps = args.get_or("steps", 8usize)?;
    let ports = args.get_or("ports", 2usize)?;
    let budget_secs = args.get_or("budget-secs", 10u64)?;
    if steps < 2 || steps % 2 != 0 {
        return Err(CliError::Usage("--steps must be even and >= 2".into()));
    }
    let cfg = PacketModelConfig {
        num_ports: ports,
        queues_per_port: 2,
        buffer: 16,
        time_steps: steps,
        interval_len: steps / 2,
        strict_priority: true,
    };
    let mut arrivals = Vec::new();
    for t in 0..steps / 2 {
        for i in 0..ports.min(2) {
            arrivals.push(Arrival {
                step: t,
                input_port: i,
                queue: (i * 2) % cfg.num_queues(),
            });
        }
    }
    let tr = reference_execution(&cfg, &arrivals);
    let budget = Budget {
        timeout: Some(Duration::from_secs(budget_secs)),
        max_sat_conflicts: Some(u64::MAX / 2),
        max_bb_nodes: u64::MAX / 2,
    };
    match solve(&cfg, &tr.measurements, budget) {
        PacketModelOutcome::Sat {
            len,
            elapsed,
            stats,
        } => {
            println!("sat in {elapsed:?}; imputed series:");
            for (q, series) in len.iter().enumerate() {
                println!("  q{q}: {series:?}");
            }
            println!(
                "solver: {} decisions, {} conflicts, {} pivots",
                stats.decisions, stats.conflicts, stats.simplex_pivots
            );
        }
        PacketModelOutcome::Unsat { elapsed, .. } => println!("unsat in {elapsed:?}"),
        PacketModelOutcome::Unknown { elapsed, stats } => {
            println!(
                "budget wall after {elapsed:?} (the §2.3 scalability result): \
                 {} conflicts, {} pivots, {} lazy iterations",
                stats.conflicts, stats.simplex_pivots, stats.iterations
            )
        }
    }
    Ok(())
}

/// Stage B of `enforce`/`fault-run`: run the degradation ladder over a
/// batch of `(constraints, prediction)` windows with the requested
/// worker count and memo cache.
///
/// With `--bench-out DIR` the batch is run twice via
/// [`bench_ladder`] — sequential/uncached reference, then the tuned
/// pass — `BENCH_cem_parallel.json` is written into `DIR`, and a
/// divergence between the two passes is a hard error (the determinism
/// contract CI greps for). Without it, only the tuned pass runs.
///
/// Returns the outcomes to verify constraints against (the sequential
/// reference when benchmarking — both passes are asserted identical)
/// plus the bench report when one was produced.
fn run_ladder(
    items: &[(WindowConstraints, Vec<Vec<f32>>)],
    cfg: &LadderConfig,
    jobs: usize,
    use_cache: bool,
    bench_dir: Option<&str>,
) -> Result<(Vec<LadderOutcome>, Option<CemParallelReport>), CliError> {
    if let Some(dir) = bench_dir {
        let (outs, report) = bench_ladder(items, cfg, jobs, use_cache);
        let path = save_report(dir, "cem_parallel", &report.to_json())?;
        eprintln!("bench report written to {}", path.display());
        if !report.identical {
            return Err(CliError::Invalid(format!(
                "parallel/cached output diverged from the sequential reference \
                 (seq={:016x} par={:016x})",
                report.sequential_hash, report.parallel_hash
            )));
        }
        Ok((outs, Some(report)))
    } else {
        let cache = SolutionCache::new(fmml_fm::cem::cache::DEFAULT_CAPACITY);
        let opts = EnforceOptions::new(jobs, use_cache.then_some(&cache));
        let outs = enforce_degraded_batch(items, cfg, &opts);
        if use_cache {
            let stats = cache.stats();
            println!(
                "  cache: hits={} misses={} hit_rate={:.1}% evictions={} saved={:.2}ms",
                stats.hits,
                stats.misses,
                stats.hit_rate() * 100.0,
                stats.evictions,
                stats.saved_ns as f64 / 1e6,
            );
        }
        Ok((outs, None))
    }
}

/// Per-rung interval counts, total intervals, and the number of windows
/// whose corrected output violates its effective constraints.
fn summarize_outcomes(
    items: &[(WindowConstraints, Vec<Vec<f32>>)],
    outs: &[LadderOutcome],
) -> ([usize; 5], usize, usize) {
    let mut level_counts = [0usize; 5];
    let mut intervals = 0usize;
    let mut violations = 0usize;
    for (out, (wc, _)) in outs.iter().zip(items) {
        for (total, n) in level_counts.iter_mut().zip(out.level_counts()) {
            *total += n;
        }
        intervals += out.levels.len();
        if !out
            .effective_constraints(wc)
            .satisfied_exact(&out.corrected)
        {
            violations += 1;
        }
    }
    (level_counts, intervals, violations)
}

/// `full=12,clamp=3`-style rendering of per-rung interval counts.
fn ladder_summary(level_counts: &[usize; 5]) -> String {
    DegradationLevel::ALL
        .iter()
        .zip(level_counts)
        .filter(|(_, n)| **n > 0)
        .map(|(l, n)| format!("{}={n}", l.label()))
        .collect::<Vec<_>>()
        .join(",")
}

/// The shared ladder-engine knobs of `enforce`/`fault-run`.
fn ladder_config(args: &Args) -> Result<LadderConfig, CliError> {
    Ok(LadderConfig {
        engine: if args.flag("smt") {
            CemEngine::Smt {
                budget: Budget::tight(),
            }
        } else {
            CemEngine::Fast
        },
        deadline: args.get::<u64>("deadline-ms")?.map(Duration::from_millis),
        escalation_factor: 4,
        breaker: None,
    })
}

/// The inference-side enforcement path, batched: impute a fresh trace
/// with a checkpoint and push every active window through the CEM
/// degradation ladder with `--jobs` workers sharing a memo cache.
fn cmd_enforce(args: &Args) -> Result<(), CliError> {
    let path = args
        .get_string("model")
        .ok_or_else(|| CliError::Usage("--model FILE is required".into()))?;
    let json = std::fs::read_to_string(path).map_err(|e| CliError::io(path, e))?;
    let model = TransformerImputer::load_json(&json)
        .map_err(|e| CliError::Invalid(format!("--model {path}: not a valid checkpoint: {e}")))?;
    let mut cfg = EvalConfig::paper();
    cfg.run_ms = args.get_or("ms", 300u64)?;
    cfg.seed = args.get_or("seed", 99u64)?;
    let runs = args.get_or("runs", 1usize)?;
    let jobs = args.get_or("jobs", 1usize)?;
    let use_cache = !args.flag("no-cache");
    let ladder_cfg = ladder_config(args)?;

    let windows = generate_windows(&cfg, cfg.seed, runs);
    if windows.is_empty() {
        return Err(CliError::Invalid(
            "no active windows in the simulated span".into(),
        ));
    }
    let items: Vec<(WindowConstraints, Vec<Vec<f32>>)> = windows
        .iter()
        .map(|w| (WindowConstraints::from_window(w), model.impute(w)))
        .collect();

    let t0 = Instant::now();
    let (outs, bench) = run_ladder(
        &items,
        &ladder_cfg,
        jobs,
        use_cache,
        args.get_string("bench-out"),
    )?;
    let wall = t0.elapsed();
    let (level_counts, intervals, violations) = summarize_outcomes(&items, &outs);
    println!(
        "enforce: windows={} intervals={intervals} jobs={jobs} cache={} wall={:.2}ms",
        items.len(),
        if use_cache { "on" } else { "off" },
        wall.as_secs_f64() * 1e3,
    );
    println!("  ladder: {}", ladder_summary(&level_counts));
    if let Some(rep) = &bench {
        println!("  bench: {}", rep.summary());
    }
    println!("violations={violations}");
    log_event!(
        "cli.enforce.done",
        "windows" = items.len(),
        "intervals" = intervals,
        "jobs" = jobs,
        "violations" = violations,
    );
    if violations > 0 {
        return Err(CliError::Invalid(format!(
            "{violations} window(s) violated their effective constraints"
        )));
    }
    Ok(())
}

/// Parse `--wire json|bin1` (default json — byte-identical to pre-v2).
fn parse_wire(args: &Args) -> Result<WireCodec, CliError> {
    match args.get_string("wire") {
        None => Ok(WireCodec::Json),
        Some(s) => WireCodec::parse(s)
            .ok_or_else(|| CliError::Usage(format!("unknown --wire {s:?} (known: json, bin1)"))),
    }
}

/// The serving model: `--model FILE` loads a checkpoint; otherwise a
/// deterministic untrained imputer seeded by `--seed` (scaled for the
/// `SimConfig::small()` traces the load generator replays).
fn serve_model(args: &Args) -> Result<std::sync::Arc<TransformerImputer>, CliError> {
    match args.get_string("model") {
        Some(path) => {
            let json = std::fs::read_to_string(path).map_err(|e| CliError::io(path, e))?;
            let model = TransformerImputer::load_json(&json).map_err(|e| {
                CliError::Invalid(format!("--model {path}: not a valid checkpoint: {e}"))
            })?;
            Ok(std::sync::Arc::new(model))
        }
        None => Ok(fmml_bench::untrained_model(args.get_or("seed", 3u64)?)),
    }
}

/// `fmml serve`: bind the streaming imputation server and run until
/// `--max-secs` elapses (or forever). On shutdown the final `StatsReply`
/// is printed and a non-zero exit signals shipped constraint violations.
fn cmd_serve(args: &Args) -> Result<(), CliError> {
    let model = serve_model(args)?;
    let process_faults = fmml_fault::ProcessFaultPlan {
        worker_panic_every: args.get_or("worker-panic-every", 0u64)?,
        solver_stall_every: args.get_or("solver-stall-every", 0u64)?,
        solver_stall_ms: args.get_or("solver-stall-ms", 5u64)?,
        slow_write_every: args.get_or("slow-write-every", 0u64)?,
        slow_write_ms: args.get_or("slow-write-ms", 2u64)?,
    };
    if process_faults.worker_panic_every == 1 {
        return Err(CliError::Usage(
            "--worker-panic-every must be >= 2 (every retry would repanic)".into(),
        ));
    }
    let cfg = ServerConfig {
        addr: args.get_string("addr").unwrap_or("127.0.0.1:4700").into(),
        workers: args.get_or("workers", 2usize)?,
        jobs: args.get_or("jobs", 1usize)?,
        deadline: Duration::from_millis(args.get_or("deadline-ms", 50u64)?),
        max_batch: args.get_or("max-batch", 16usize)?,
        queue_depth: args.get_or("queue-depth", 64usize)?,
        max_restarts: args.get_or("max-restarts", 5u32)?,
        wire: parse_wire(args)?,
        process_faults,
        ..ServerConfig::default()
    };
    let max_secs = args.get::<u64>("max-secs")?;
    let handle =
        fmml_serve::spawn(model, cfg.clone()).map_err(|e| CliError::io(cfg.addr.clone(), e))?;
    let addr = handle.addr().to_string();
    eprintln!(
        "fmml-serve listening on {addr} (workers={} deadline={}ms max_batch={} queue_depth={})",
        cfg.workers,
        cfg.deadline.as_millis(),
        cfg.max_batch,
        cfg.queue_depth,
    );
    log_event!("cli.serve.start", "addr" = addr.as_str());
    match max_secs {
        Some(secs) => std::thread::sleep(Duration::from_secs(secs)),
        None => loop {
            std::thread::sleep(Duration::from_secs(3600));
        },
    }
    let (worker_panics, worker_restarts) = handle.worker_stats();
    let (resumes, replayed) = handle.resume_stats();
    let stats = handle.shutdown();
    let Frame::StatsReply {
        sessions,
        accepted,
        rejected,
        malformed,
        replies,
        batches,
        deadline_misses,
        violations,
        slow_disconnects,
        ..
    } = stats
    else {
        return Err(CliError::Invalid("server returned no stats".into()));
    };
    println!(
        "serve: sessions={sessions} accepted={accepted} rejected={rejected} \
         malformed={malformed} replies={replies} batches={batches} \
         deadline_misses={deadline_misses} slow_disconnects={slow_disconnects}"
    );
    println!(
        "recovery: worker_panics={worker_panics} worker_restarts={worker_restarts} \
         resumes={resumes} replayed={replayed}"
    );
    println!("violations={violations}");
    log_event!(
        "cli.serve.done",
        "sessions" = sessions,
        "replies" = replies,
        "violations" = violations,
    );
    if violations > 0 {
        return Err(CliError::Invalid(format!(
            "{violations} shipped reply(ies) violated their constraints"
        )));
    }
    Ok(())
}

/// `fmml cluster`: the sharded serving cluster — one router bound on
/// `--addr`, N in-process backend serve nodes on loopback ephemeral
/// ports, consistent-hash placement and health-probed failover between
/// them. `--kill-backend-after-ms` shuts backend 0 down mid-run so a
/// live deployment can demonstrate migration under `fmml loadgen`.
fn cmd_cluster(args: &Args) -> Result<(), CliError> {
    let model = serve_model(args)?;
    let backends_n = args.get_or("backends", 3usize)?;
    if backends_n == 0 {
        return Err(CliError::Usage("--backends must be at least 1".into()));
    }
    let wire = parse_wire(args)?;
    let backend_cfg = ServerConfig {
        workers: args.get_or("workers", 1usize)?,
        deadline: Duration::from_millis(args.get_or("deadline-ms", 50u64)?),
        wire,
        ..ServerConfig::default()
    };
    let router = fmml_cluster::spawn(fmml_cluster::RouterConfig {
        addr: args.get_string("addr").unwrap_or("127.0.0.1:4710").into(),
        wire,
        ..fmml_cluster::RouterConfig::default()
    })
    .map_err(|e| CliError::io("cluster router", e))?;
    let mut backends: Vec<Option<fmml_serve::ServerHandle>> = Vec::new();
    for k in 0..backends_n {
        let h = fmml_serve::spawn(std::sync::Arc::clone(&model), backend_cfg.clone())
            .map_err(|e| CliError::io("cluster backend", e))?;
        router.add_backend(
            &format!("b{k}"),
            fmml_serve::TcpConnector {
                addr: h.addr().to_string(),
            },
        );
        backends.push(Some(h));
    }
    let addr = router.addr().to_string();
    eprintln!(
        "fmml-cluster listening on {addr} ({backends_n} backends, workers={} each)",
        backend_cfg.workers
    );
    log_event!(
        "cli.cluster.start",
        "addr" = addr.as_str(),
        "backends" = backends_n as u64
    );

    let kill_after = args.get_or("kill-backend-after-ms", 0u64)?;
    let killer = (kill_after > 0).then(|| {
        let victim = backends[0].take().expect("backend 0 exists");
        std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(kill_after));
            eprintln!("fmml-cluster: killing backend b0 (live-migration drill)");
            victim.shutdown()
        })
    });

    match args.get::<u64>("max-secs")? {
        Some(secs) => std::thread::sleep(Duration::from_secs(secs)),
        None => loop {
            std::thread::sleep(Duration::from_secs(3600));
        },
    }

    let (migrations, resumes, replayed) = router.cluster_stats();
    let stats = router.shutdown();
    let mut violations_total = 0u64;
    if let Some(k) = killer {
        if let Frame::StatsReply { violations, .. } = k.join().expect("killer thread") {
            violations_total += violations;
        }
    }
    for h in backends.into_iter().flatten() {
        if let Frame::StatsReply { violations, .. } = h.shutdown() {
            violations_total += violations;
        }
    }
    let Frame::StatsReply {
        sessions,
        accepted,
        malformed,
        replies,
        ..
    } = stats
    else {
        return Err(CliError::Invalid("router returned no stats".into()));
    };
    println!(
        "cluster: sessions={sessions} accepted={accepted} malformed={malformed} \
         replies={replies}"
    );
    println!("cluster: migrations={migrations} resumes={resumes} replayed={replayed}");
    println!("violations={violations_total}");
    log_event!(
        "cli.cluster.done",
        "sessions" = sessions,
        "replies" = replies,
        "migrations" = migrations,
        "violations" = violations_total,
    );
    if violations_total > 0 {
        return Err(CliError::Invalid(format!(
            "{violations_total} shipped reply(ies) violated their constraints"
        )));
    }
    Ok(())
}

/// `fmml loadgen`: concurrent trace-replay clients against a running
/// server, optionally under the standard chaos preset. Prints the
/// aggregate report table; `--report-json FILE` writes the flat JSON
/// (fields like `deadline_miss_rate` and `rejected`) for CI to grep.
fn cmd_loadgen(args: &Args) -> Result<(), CliError> {
    let addr = args
        .get_string("addr")
        .ok_or_else(|| CliError::Usage("--addr HOST:PORT is required".into()))?;
    let cfg = LoadgenConfig {
        addr: addr.into(),
        clients: args.get_or("clients", 8usize)?,
        intervals: args.get_or("intervals", 40usize)?,
        seed: args.get_or("seed", 11u64)?,
        deadline: Duration::from_millis(args.get_or("deadline-ms", 50u64)?),
        pace: args.get::<u64>("pace-ms")?.map(Duration::from_millis),
        chaos: args.flag("chaos").then(ChaosConfig::standard),
        wire: parse_wire(args)?,
        ..LoadgenConfig::default()
    };
    log_event!(
        "cli.loadgen.start",
        "addr" = addr,
        "clients" = cfg.clients,
        "chaos" = cfg.chaos.is_some(),
    );
    let report = fmml_serve::run_loadgen(&cfg);
    print!("{}", report.render_table());
    if let Some(path) = args.get_string("report-json") {
        std::fs::write(path, report.to_json()).map_err(|e| CliError::io(path, e))?;
        eprintln!("load report written to {path}");
    }
    log_event!(
        "cli.loadgen.done",
        "sent" = report.sent,
        "answered" = report.answered,
        "rejected" = report.rejected,
        "p99_us" = report.p99_us,
    );
    if report.server_violations > 0 {
        return Err(CliError::Invalid(format!(
            "server shipped {} constraint violation(s)",
            report.server_violations
        )));
    }
    if report.unknown_levels > 0 {
        return Err(CliError::Invalid(format!(
            "{} reply(ies) carried an undecodable degradation level",
            report.unknown_levels
        )));
    }
    Ok(())
}

/// `fmml obs`: live introspection of a running server. Sends a
/// `MetricsDump` frame (accepted before or after the handshake) and
/// renders the `MetricsReply` — counters/gauges, per-stage latency
/// quantiles, SLO gauges, and recent trace summaries. `--json` prints
/// the raw dump; `--folded FILE` writes the folded-stacks export that
/// `flamegraph.pl` consumes.
fn cmd_obs(args: &Args) -> Result<(), CliError> {
    let addr = args.get_string("addr").unwrap_or("127.0.0.1:4700");
    let mut stream =
        std::net::TcpStream::connect(addr).map_err(|e| CliError::io(addr.to_string(), e))?;
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .map_err(|e| CliError::io(addr.to_string(), e))?;
    write_frame(&mut stream, &Frame::MetricsDump)
        .map_err(|e| CliError::Invalid(format!("{addr}: {e}")))?;
    let mut reader = FrameReader::new(stream);
    let reply = reader
        .read_frame()
        .map_err(|e| CliError::Invalid(format!("{addr}: {e}")))?;
    let Frame::MetricsReply { json } = reply else {
        return Err(CliError::Invalid(format!(
            "{addr}: expected MetricsReply, got {}",
            reply.tag()
        )));
    };
    let dump: serde_json::Value = serde_json::from_str(&json)
        .map_err(|e| CliError::Invalid(format!("{addr}: undecodable dump: {e}")))?;
    if let Some(path) = args.get_string("folded") {
        let folded = dump["trace"]["folded"].as_str().unwrap_or("");
        std::fs::write(path, folded).map_err(|e| CliError::io(path, e))?;
        eprintln!("folded stacks written to {path}");
    }
    if args.flag("json") {
        println!("{json}");
    } else {
        print!("{}", render_obs_dump(&dump));
    }
    Ok(())
}

/// Human rendering of a [`fmml_obs::dump_json`] payload: the same
/// fixed-width tables as `--stats`, then the trace section.
fn render_obs_dump(dump: &serde_json::Value) -> String {
    let mut out = String::new();
    let m = &dump["metrics"];
    let mut scalars: Vec<(&str, String)> = Vec::new();
    for section in ["counters", "gauges", "float_gauges"] {
        for (k, v) in m[section].as_object().into_iter().flatten() {
            let rendered = v
                .as_u64()
                .map(|n| n.to_string())
                .or_else(|| v.as_f64().map(|f| format!("{f:.4}")))
                .unwrap_or_else(|| "?".into());
            scalars.push((k.as_str(), rendered));
        }
    }
    if !scalars.is_empty() {
        out.push_str(&format!("{:<44} {:>16}\n", "counter/gauge", "value"));
        for (k, v) in scalars {
            out.push_str(&format!("{k:<44} {v:>16}\n"));
        }
    }
    if let Some(hists) = m["histograms"].as_object().filter(|h| !h.is_empty()) {
        out.push_str(&format!(
            "{:<30} {:>7} {:>9} {:>9} {:>9} {:>9} {:>9} {:>9} {:>3}\n",
            "histogram", "count", "mean", "p50", "p90", "p99", "p999", "max", ""
        ));
        for (name, h) in hists {
            out.push_str(&format!(
                "{:<30} {:>7} {:>9.2} {:>9.2} {:>9.2} {:>9.2} {:>9.2} {:>9.2} {:>3}\n",
                name,
                h["count"].as_u64().unwrap_or(0),
                h["mean"].as_f64().unwrap_or(0.0),
                h["p50"].as_f64().unwrap_or(0.0),
                h["p90"].as_f64().unwrap_or(0.0),
                h["p99"].as_f64().unwrap_or(0.0),
                h["p999"].as_f64().unwrap_or(0.0),
                h["max"].as_f64().unwrap_or(0.0),
                h["unit"].as_str().unwrap_or(""),
            ));
        }
    }
    let t = &dump["trace"];
    out.push_str(&format!(
        "trace: enabled={} spans={} dropped={}\n",
        t["enabled"].as_bool().unwrap_or(false),
        t["spans"].as_u64().unwrap_or(0),
        t["dropped"].as_u64().unwrap_or(0),
    ));
    for s in t["summaries"].as_array().into_iter().flatten() {
        out.push_str(&format!(
            "  trace {:>12} root={} spans={} total={:.1}us\n",
            s["trace_id"].as_u64().unwrap_or(0),
            s["root"].as_str().unwrap_or("?"),
            s["spans"].as_u64().unwrap_or(0),
            s["total_ns"].as_u64().unwrap_or(0) as f64 / 1e3,
        ));
    }
    out
}

/// `fmml bench <suite>`: run one of [`fmml_bench::SUITES`] at its fixed
/// configuration and write `BENCH_<suite>.json` into `--out DIR`. A
/// suite whose contract breaks panics or returns an error before
/// anything is written.
fn cmd_bench(args: &Args) -> Result<(), CliError> {
    let suites = fmml_bench::SUITES.join("|");
    let suite = args
        .subcommand
        .as_deref()
        .ok_or_else(|| CliError::Usage(format!("usage: fmml bench <{suites}> [--out DIR]")))?;
    let report = fmml_bench::run_suite(suite)
        .ok_or_else(|| {
            CliError::Usage(format!("unknown bench suite {suite:?} (suites: {suites})"))
        })?
        .map_err(CliError::Invalid)?;
    eprintln!("{}", report.summary.trim_end());
    log_event!("cli.bench.done", "suite" = suite);
    let dir = args.get_string("out").unwrap_or("bench");
    let path = save_report(dir, suite, &report.json)?;
    println!("bench report written to {}", path.display());
    Ok(())
}

/// Write a bench report as `DIR/BENCH_<bench>.json`; returns its path.
fn save_report(dir: &str, bench: &str, json: &str) -> Result<PathBuf, CliError> {
    fmml_bench::save(Path::new(dir), bench, json).map_err(|e| CliError::io(dir, e))
}

/// Chaos mode: drive the full pipeline through seeded fault injection
/// and prove the degradation ladder still yields constraint-satisfying
/// windows.
///
/// Stages (all deterministic in `--seed`):
/// 1. train a small imputer with a poisoned epoch (exercises the
///    non-finite loss guard and checkpoint rollback — `train.rollback`
///    in the run log);
/// 2. simulate fresh traffic, corrupt the coarse telemetry with
///    [`FaultPlan::chaos`] (>= 10% of intervals), sanitize it;
/// 3. impute, corrupt the model output with NaN/Inf spikes, sanitize;
/// 4. run [`enforce_degraded`] and verify every window satisfies its
///    effective (possibly minimally-relaxed) C1 ∧ C2 ∧ C3.
///
/// Exits non-zero if any window violates its constraints. `--bench-out
/// DIR` additionally writes a `BENCH_cem_ladder.json` baseline with the
/// median per-window ladder latency.
fn cmd_fault_run(args: &Args) -> Result<(), CliError> {
    let seed = args.get_or("seed", 7u64)?;
    let runs = args.get_or("runs", 2usize)?;
    let epochs = args.get_or("epochs", 3usize)?.max(2);
    let jobs = args.get_or("jobs", 1usize)?;
    let use_cache = !args.flag("no-cache");

    let mut cfg = EvalConfig::smoke();
    cfg.seed = seed;
    cfg.train.seed = seed;
    cfg.train.epochs = epochs;
    // Poison the second training epoch so the rollback path runs on
    // every chaos invocation.
    cfg.train.nan_loss_epoch = Some(1);

    let plan = FaultPlan::chaos(seed);
    log_event!(
        "cli.fault_run.start",
        "seed" = seed,
        "runs" = runs,
        "expected_rate" = plan.expected_coarse_rate(),
    );

    // 1. Train (with the poisoned epoch).
    let scales = Scales {
        qlen: cfg.sim.buffer_packets as f32,
        count: (cfg.sim.pkts_per_ms() as usize * cfg.interval_len) as f32,
    };
    let train_windows = generate_windows(&cfg, cfg.seed, cfg.train_runs);
    if train_windows.is_empty() {
        return Err(CliError::Invalid("no active training windows".into()));
    }
    let (model, stats) = train(&train_windows, scales, &cfg.train);
    let rollbacks = stats.iter().filter(|s| s.rolled_back).count();
    if rollbacks == 0 {
        return Err(CliError::Invalid(
            "poisoned epoch did not trigger a rollback".into(),
        ));
    }

    // 2.-4. Inject -> sanitize -> impute -> ladder on fresh windows.
    let mut windows = generate_windows(&cfg, cfg.seed ^ 0xFA17, runs);
    if windows.is_empty() {
        return Err(CliError::Invalid("no active evaluation windows".into()));
    }
    let san_cfg = SanitizeConfig::for_sim(cfg.sim.buffer_packets, cfg.interval_len);
    let ladder_cfg = ladder_config(args)?;

    // Stage A (sequential, deterministic in --seed): inject -> sanitize
    // -> impute -> sanitize, collecting each window's enforcement input.
    let mut injected: BTreeMap<&'static str, usize> = BTreeMap::new();
    let mut report = SanitizeReport::default();
    let mut items: Vec<(WindowConstraints, Vec<Vec<f32>>)> = Vec::with_capacity(windows.len());
    for (i, w) in windows.iter_mut().enumerate() {
        let salt = i as u64;
        for e in inject_window(&plan, salt, w) {
            *injected.entry(e.kind.label()).or_default() += 1;
        }
        report.merge(sanitize_window(w, &san_cfg));
        let mut series = model.impute(w);
        for e in inject_series(&plan, salt, &mut series) {
            *injected.entry(e.kind.label()).or_default() += 1;
        }
        report.merge(sanitize_series(&mut series));
        items.push((WindowConstraints::from_window(w), series));
    }

    // Stage B: the ladder, batched — parallel across windows when
    // --jobs != 1, memoized unless --no-cache, benchmarked against the
    // sequential reference when --bench-out is set.
    let (outs, bench) = run_ladder(
        &items,
        &ladder_cfg,
        jobs,
        use_cache,
        args.get_string("bench-out"),
    )?;
    let (level_counts, intervals, violations) = summarize_outcomes(&items, &outs);

    let injected_total: usize = injected.values().sum();
    let injected_str: Vec<String> = injected.iter().map(|(k, n)| format!("{k}={n}")).collect();
    println!(
        "fault-run: seed={seed} windows={} intervals={intervals} jobs={jobs} cache={}",
        windows.len(),
        if use_cache { "on" } else { "off" },
    );
    println!(
        "  plan: chaos preset, expected corruption rate {:.1}%",
        plan.expected_coarse_rate() * 100.0
    );
    println!(
        "  injected: total={injected_total} ({})",
        injected_str.join(",")
    );
    println!("  sanitizer: {}", report.summary());
    println!("  ladder: {}", ladder_summary(&level_counts));
    if let Some(rep) = &bench {
        println!("  bench: {}", rep.summary());
    }
    println!(
        "  train: epochs={} rollbacks={rollbacks} final_loss={:.4}",
        stats.len(),
        stats.last().map_or(f32::NAN, |s| s.mean_loss)
    );
    println!("violations={violations}");
    log_event!(
        "cli.fault_run.done",
        "injected" = injected_total,
        "artifacts" = report.total(),
        "violations" = violations,
        "rollbacks" = rollbacks,
    );

    if let (Some(dir), Some(rep)) = (args.get_string("bench-out"), &bench) {
        // The historical per-window ladder baseline, now derived from the
        // bench report's sequential reference pass (mean ns per window).
        let mut baseline = Baseline::new("cem_ladder");
        baseline.record(
            "fault_run_enforce_window",
            rep.sequential_ns as f64 / rep.windows.max(1) as f64,
            rep.windows as u64,
        );
        let path = baseline
            .save(Path::new(dir))
            .map_err(|e| CliError::io(dir, e))?;
        eprintln!("bench baseline written to {}", path.display());
    }

    if violations > 0 {
        return Err(CliError::Invalid(format!(
            "{violations} window(s) violated their effective constraints"
        )));
    }
    Ok(())
}

/// Deterministic simulation testing: run seeded schedules of client ops,
/// transport faults, and worker panics against the full server over the
/// in-memory transport, checking every reply against the reference
/// protocol model. Exit is non-zero iff any seed reports a violation
/// (or, with `--inject-bug`, iff the bug is *not* caught and reproduced).
fn cmd_simtest(args: &Args) -> Result<(), CliError> {
    if args.flag("cluster") {
        if args.get_string("inject-bug").is_some() {
            return Err(CliError::Usage(
                "--inject-bug is a single-node mode (the planted bug lives in the \
                 backend replay path; use it without --cluster)"
                    .into(),
            ));
        }
        return cmd_simtest_cluster(args);
    }
    let bug = match args.get_string("inject-bug") {
        None => None,
        Some("replay-off-by-one") => Some(fmml_serve::ProtocolBug::ReplayOffByOne),
        Some(other) => {
            return Err(CliError::Usage(format!(
                "unknown --inject-bug {other:?} (known: replay-off-by-one)"
            )))
        }
    };
    let defaults = fmml_simtest::SimtestConfig::default();
    let cfg = fmml_simtest::SimtestConfig {
        seeds: args.get_or("seeds", defaults.seeds)?,
        start_seed: args.get_or("seed", defaults.start_seed)?,
        clients: args.get_or("clients", defaults.clients)?,
        ops: args.get_or("ops", defaults.ops)?,
        inject_bug: bug,
        wire: parse_wire(args)?,
    };
    if cfg.seeds == 0 {
        return Err(CliError::Usage("--seeds must be at least 1".into()));
    }

    if cfg.inject_bug.is_some() {
        return cmd_simtest_bug(&cfg);
    }

    let t0 = Instant::now();
    let outcomes = fmml_simtest::run(&cfg);
    let wall = t0.elapsed();

    // Aggregate fingerprint over all seeds: pins the complete observable
    // behaviour of the run so CI can detect silent divergence.
    let mut agg = fmml_obs::hash::FNV_OFFSET;
    let mut totals = (0u64, 0u64, 0u64, 0u64, 0u64);
    let mut bad_seeds = 0usize;
    for o in &outcomes {
        agg = fmml_obs::hash::fnv_fold(agg, o.fingerprint);
        totals.0 += o.faults.dropped;
        totals.1 += o.faults.duplicated;
        totals.2 += o.faults.reordered;
        totals.3 += o.faults.delayed;
        totals.4 += o.faults.disconnects;
        if args.flag("json") {
            use serde_json::Value;
            let line = Value::Object(vec![
                ("seed".into(), Value::U64(o.seed)),
                (
                    "fingerprint".into(),
                    Value::String(format!("{:016x}", o.fingerprint)),
                ),
                (
                    "violations".into(),
                    Value::Array(
                        o.violations
                            .iter()
                            .map(|v| Value::String(v.clone()))
                            .collect(),
                    ),
                ),
                (
                    "faults".into(),
                    Value::Object(vec![
                        ("delayed".into(), Value::U64(o.faults.delayed)),
                        ("disconnects".into(), Value::U64(o.faults.disconnects)),
                    ]),
                ),
            ]);
            println!("{line}");
        }
        if !o.violations.is_empty() {
            bad_seeds += 1;
            println!("FMML_SIM_SEED={}", o.seed);
            for v in &o.violations {
                println!("  violation: {v}");
            }
        }
    }
    println!(
        "simtest: {} seeds ({}..{}), {} clients x {} ops, {} violating seed(s), \
         faults delayed={} disconnects={}, fingerprint {:016x}, {:.1}s",
        cfg.seeds,
        cfg.start_seed,
        cfg.start_seed + cfg.seeds - 1,
        cfg.clients,
        cfg.ops,
        bad_seeds,
        totals.3,
        totals.4,
        agg,
        wall.as_secs_f64()
    );
    log_event!(
        "simtest.done",
        "seeds" = cfg.seeds,
        "violating" = bad_seeds as u64,
        "fingerprint" = agg,
    );

    if let Some(path) = args.get_string("pinned") {
        let params = [
            ("seeds", cfg.seeds),
            ("start_seed", cfg.start_seed),
            ("clients", cfg.clients as u64),
            ("ops", cfg.ops as u64),
        ];
        check_or_write_pinned(path, &params, agg)?;
    }

    if bad_seeds > 0 {
        return Err(CliError::Invalid(format!(
            "{bad_seeds} seed(s) violated the protocol model; \
             re-run any with `fmml simtest --seeds 1 --seed <FMML_SIM_SEED>`"
        )));
    }
    Ok(())
}

/// `--inject-bug` mode: scan seeds until the checker flags the planted
/// protocol bug, then re-run that exact seed and require a bitwise match
/// of fingerprint and violation text — proving both that the checker is
/// live and that a printed seed is a complete reproducer.
fn cmd_simtest_bug(cfg: &fmml_simtest::SimtestConfig) -> Result<(), CliError> {
    let t0 = Instant::now();
    for seed in cfg.start_seed..cfg.start_seed + cfg.seeds {
        let first = fmml_simtest::run_seed(seed, cfg);
        if first.violations.is_empty() {
            continue;
        }
        println!("FMML_SIM_SEED={seed}");
        for v in &first.violations {
            println!("  violation: {v}");
        }
        let replay = fmml_simtest::run_seed(seed, cfg);
        if replay.fingerprint != first.fingerprint || replay.violations != first.violations {
            return Err(CliError::Invalid(format!(
                "seed {seed} caught the bug but did not reproduce bitwise: \
                 fingerprint {:016x} vs {:016x}",
                first.fingerprint, replay.fingerprint
            )));
        }
        println!(
            "simtest: injected bug caught at seed {seed} and reproduced bitwise \
             (fingerprint {:016x}, {:.1}s)",
            first.fingerprint,
            t0.elapsed().as_secs_f64()
        );
        log_event!(
            "simtest.bug_caught",
            "seed" = seed,
            "fingerprint" = first.fingerprint
        );
        return Ok(());
    }
    Err(CliError::Invalid(format!(
        "injected bug was NOT caught in {} seed(s) — the checker is blind to it",
        cfg.seeds
    )))
}

/// `fmml simtest --cluster`: the multi-node explorer — clients → router
/// → N backend shards per seed, schedules extended with link flaps,
/// partitions and membership churn. Determinism is proven the strong
/// way: the whole batch runs **twice** and the folded fingerprint must
/// match bitwise (placement, migration and probe timing may all differ
/// between runs; reply content must not).
fn cmd_simtest_cluster(args: &Args) -> Result<(), CliError> {
    let defaults = fmml_simtest::ClusterSimConfig::default();
    let cfg = fmml_simtest::ClusterSimConfig {
        seeds: args.get_or("seeds", defaults.seeds)?,
        start_seed: args.get_or("seed", defaults.start_seed)?,
        clients: args.get_or("clients", defaults.clients)?,
        backends: args.get_or("backends", defaults.backends)?,
        ops: args.get_or("ops", defaults.ops)?,
        wire: parse_wire(args)?,
    };
    if cfg.seeds == 0 {
        return Err(CliError::Usage("--seeds must be at least 1".into()));
    }
    if cfg.backends == 0 {
        return Err(CliError::Usage("--backends must be at least 1".into()));
    }

    let t0 = Instant::now();
    let first = fmml_simtest::cluster::run(&cfg);
    let second = fmml_simtest::cluster::run(&cfg);
    let wall = t0.elapsed();

    let fp1 = fmml_simtest::cluster::fold_run_fingerprint(&first);
    let fp2 = fmml_simtest::cluster::fold_run_fingerprint(&second);
    let mut bad_seeds = 0usize;
    let mut migrations = 0u64;
    let mut resumes = 0u64;
    for (a, b) in first.iter().zip(&second) {
        migrations += a.migrations;
        resumes += a.resumes;
        if args.flag("json") {
            use serde_json::Value;
            let line = Value::Object(vec![
                ("seed".into(), Value::U64(a.inner.seed)),
                (
                    "fingerprint".into(),
                    Value::String(format!("{:016x}", a.inner.fingerprint)),
                ),
                ("migrations".into(), Value::U64(a.migrations)),
                ("resumes".into(), Value::U64(a.resumes)),
                (
                    "violations".into(),
                    Value::Array(
                        a.inner
                            .violations
                            .iter()
                            .map(|v| Value::String(v.clone()))
                            .collect(),
                    ),
                ),
            ]);
            println!("{line}");
        }
        if !a.inner.violations.is_empty() {
            bad_seeds += 1;
            println!("FMML_SIM_SEED={}", a.inner.seed);
            for v in &a.inner.violations {
                println!("  violation: {v}");
            }
        }
        if a.inner.fingerprint != b.inner.fingerprint {
            println!(
                "seed {} NOT reproducible: {:016x} vs {:016x}",
                a.inner.seed, a.inner.fingerprint, b.inner.fingerprint
            );
        }
    }
    println!(
        "simtest --cluster: {} seeds ({}..{}), {} clients x {} ops x {} backends, \
         {} violating seed(s), migrations={} resumes={}, fingerprint {:016x}, {:.1}s",
        cfg.seeds,
        cfg.start_seed,
        cfg.start_seed + cfg.seeds - 1,
        cfg.clients,
        cfg.ops,
        cfg.backends,
        bad_seeds,
        migrations,
        resumes,
        fp1,
        wall.as_secs_f64()
    );
    log_event!(
        "simtest.cluster.done",
        "seeds" = cfg.seeds,
        "violating" = bad_seeds as u64,
        "migrations" = migrations,
        "fingerprint" = fp1,
    );
    if fp1 != fp2 {
        return Err(CliError::Invalid(format!(
            "cluster run not reproducible: first pass {fp1:016x}, second pass {fp2:016x}"
        )));
    }
    if let Some(path) = args.get_string("pinned") {
        let params = [
            ("seeds", cfg.seeds),
            ("start_seed", cfg.start_seed),
            ("clients", cfg.clients as u64),
            ("ops", cfg.ops as u64),
            ("backends", cfg.backends as u64),
        ];
        check_or_write_pinned(path, &params, fp1)?;
    }
    if bad_seeds > 0 {
        return Err(CliError::Invalid(format!(
            "{bad_seeds} seed(s) violated the protocol model; re-run any with \
             `fmml simtest --cluster --seeds 1 --seed <FMML_SIM_SEED>`"
        )));
    }
    Ok(())
}

/// Compare the aggregate fingerprint against a pinned baseline file, or
/// create the file on first run. The pin only holds for identical run
/// parameters (`params`: seeds, start_seed, clients, ops, plus backends
/// in cluster mode), so mismatched configs are reported as such rather
/// than as behavioural divergence.
fn check_or_write_pinned(path: &str, params: &[(&str, u64)], agg: u64) -> Result<(), CliError> {
    use serde_json::Value;
    let mut fields: Vec<(String, Value)> = params
        .iter()
        .map(|&(k, v)| (k.to_string(), Value::U64(v)))
        .collect();
    fields.push(("fingerprint".into(), Value::String(format!("{agg:016x}"))));
    let record = Value::Object(fields);
    if !Path::new(path).exists() {
        let pretty = serde_json::to_string_pretty(&record)
            .map_err(|e| CliError::Invalid(format!("{path}: {e}")))?;
        std::fs::write(path, format!("{pretty}\n")).map_err(|e| CliError::io(path, e))?;
        println!("pinned fingerprint written to {path}");
        return Ok(());
    }
    let raw = std::fs::read_to_string(path).map_err(|e| CliError::io(path, e))?;
    let pinned: serde_json::Value = serde_json::from_str(&raw)
        .map_err(|e| CliError::Invalid(format!("{path}: not valid JSON: {e}")))?;
    for &(key, _) in params {
        if pinned.get(key) != record.get(key) {
            return Err(CliError::Invalid(format!(
                "{path}: pinned {key}={} but this run used {key}={} — \
                 re-pin or pass matching flags",
                pinned.get(key).unwrap_or(&serde_json::Value::Null),
                record.get(key).unwrap_or(&serde_json::Value::Null),
            )));
        }
    }
    let want = pinned
        .get("fingerprint")
        .and_then(|v| v.as_str())
        .unwrap_or("");
    let got = format!("{agg:016x}");
    if want != got {
        return Err(CliError::Invalid(format!(
            "{path}: fingerprint mismatch: pinned {want}, got {got} — behaviour diverged \
             (or the host computes floats differently; see ci.yml simtest-smoke notes)"
        )));
    }
    println!("pinned fingerprint verified ({got})");
    Ok(())
}
